// Package bench implements the experiment harness that regenerates every
// table and figure of the paper's evaluation (§V) on the simulated
// substrate. Each experiment returns a Table that prints in the shape of
// the paper's artifact; the cmd/sdrad-bench binary drives these
// functions.
//
// Absolute numbers differ from the paper — the substrate is a software
// MMU, not a Xeon — but the comparisons the paper draws (who wins, by
// roughly what factor, where the crossovers are) are preserved. See
// EXPERIMENTS.md for the paper-vs-measured record.
//
// Every number an experiment is judged against is a reference arm
// measured in the same run (vanilla next to sdrad, restart next to
// rewind, recorder paused next to recorder on): nothing here reads or
// writes a file. What hardening costs a served request is measured by
// the ledger in benchmark/, not here.
package bench

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"time"
)

// Scale sizes the experiments. Quick keeps unit-test latency low; Full
// approaches the paper's configuration as far as the simulation allows.
type Scale struct {
	// MemcachedRecords/Ops: the YCSB load and run sizes (paper: 1e7/1e8).
	MemcachedRecords int
	MemcachedOps     int
	// ClientThreads per YCSB phase (paper: 32 clients × 16 threads).
	ClientThreads int
	// NginxRequests/NginxConns size the ApacheBench runs (paper: 75
	// concurrent connections).
	NginxRequests int
	NginxConns    int
	// CryptoIters is the per-size iteration count for the OpenSSL speed
	// benchmark (paper: 3 s per size).
	CryptoIters int
	// RewindTrials is the sample count for latency measurements.
	RewindTrials int
}

// Quick is the scale used by the test suite.
var Quick = Scale{
	MemcachedRecords: 2000,
	MemcachedOps:     6000,
	ClientThreads:    4,
	NginxRequests:    2000,
	NginxConns:       16,
	CryptoIters:      300,
	RewindTrials:     25,
}

// Full is the scale used by cmd/sdrad-bench.
var Full = Scale{
	MemcachedRecords: 20000,
	MemcachedOps:     100000,
	ClientThreads:    8,
	NginxRequests:    20000,
	NginxConns:       75,
	CryptoIters:      2000,
	RewindTrials:     200,
}

// errClaim marks an experiment whose own run violated the claim it
// states (recovery, cluster, telemetry): the measurement succeeded and
// its table printed, the number is on the wrong side of the line.
var errClaim = errors.New("bench: claim violated")

// Table is one rendered experiment artifact.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, cell)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// fmtDur renders a duration with microsecond precision.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1000)
	}
}

// fmtPct renders a relative overhead percentage versus a baseline.
func fmtPct(value, baseline float64) string {
	if baseline == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", (value-baseline)/baseline*100)
}

// fmtTput renders an operations/second figure.
func fmtTput(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.2fM/s", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk/s", v/1e3)
	default:
		return fmt.Sprintf("%.0f/s", v)
	}
}

// meanStd computes the mean and standard deviation of samples.
func meanStd(samples []time.Duration) (mean, std time.Duration) {
	if len(samples) == 0 {
		return 0, 0
	}
	var sum float64
	for _, s := range samples {
		sum += float64(s)
	}
	m := sum / float64(len(samples))
	var varsum float64
	for _, s := range samples {
		d := float64(s) - m
		varsum += d * d
	}
	return time.Duration(m), time.Duration(math.Sqrt(varsum / float64(len(samples))))
}
