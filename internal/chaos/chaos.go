// Package chaos is a deterministic fault-injection engine for the SDRaD
// servers. The two sweeps (sweep.go) fault every in-domain access and
// domain allocation of a fixed request mix on a hardened server and judge
// each point against the vanilla build's replies; the cluster campaign
// drives a router over three hardened backends through a seeded schedule
// of attacks, a killed backend and a quarantined one. After every rewind
// the monitor absorbs, the engine audits the invariants the monitor
// relies on (core.Library.Audit plus engine-side checks: mapped-bytes
// stability, rewind accounting, fault-log correlation). The core library
// itself is held to a reference model instead (internal/core,
// model_test.go; GUARANTEES.md).
//
// "Unlimited Lives" (Gülmez et al.) motivates the design: rewind-based
// recovery fails subtly, by leaving state inconsistent after a rollback,
// not loudly. The engine therefore treats "the process survived" as the
// weakest of its checks and re-derives the monitor's bookkeeping after
// every absorbed fault.
//
// Everything is reproducible from the seed: the schedule — the ordered
// list of decisions and outcomes a campaign records — hashes to the same
// value on every run with the same seed, and diverging hashes pinpoint
// the first nondeterministic decision.
package chaos

import (
	"fmt"
	"slices"
	"time"

	"sdrad/internal/telemetry"
)

// Config parameterizes one campaign run.
type Config struct {
	// Seed drives every random decision; the same seed reproduces the
	// identical fault schedule.
	Seed int64
	// Ops is the number of operations per campaign (default 32).
	Ops int
	// Logf, when non-nil, receives progress lines (the -v output of
	// cmd/sdrad-chaos).
	Logf func(format string, args ...any)
	// Telemetry, when non-nil, is attached to every campaign's library so
	// one recorder accumulates the flight record and forensics reports
	// across campaigns (cmd/sdrad-chaos's -flight-dump). When nil each
	// campaign builds a private recorder; either way the campaigns assert
	// that every absorbed rewind leaves exactly one forensics report whose
	// si_code matches the injected fault.
	Telemetry *telemetry.Recorder
}

// recorder returns the campaign's telemetry recorder, building a private
// one when the caller did not share one.
func (c *Config) recorder() *telemetry.Recorder {
	if c.Telemetry != nil {
		return c.Telemetry
	}
	return telemetry.New(telemetry.Options{})
}

func (c *Config) setDefaults() {
	if c.Ops <= 0 {
		c.Ops = 32
	}
}

// Report is the outcome of one campaign.
type Report struct {
	Campaign string
	Seed     int64
	Ops      int
	// Injected counts the faults the campaign provoked or injected that
	// the monitor had to absorb; Absorbed counts the rewinds observed.
	// The two must match (each absorbed exactly once).
	Injected int
	Absorbed int
	// Audits counts invariant audits run; every one must pass.
	Audits int
	// Points counts the fault points a sweep judged (0 for a campaign);
	// Wall is how long the run took.
	Points int
	Wall   time.Duration
	// Schedule is the ordered record of decisions and outcomes; its hash
	// is the reproducibility witness.
	Schedule []string
	// Failures lists violated expectations; empty means the campaign
	// passed.
	Failures []string

	logf func(format string, args ...any)
}

// Ok reports whether the campaign met every expectation.
func (r *Report) Ok() bool { return len(r.Failures) == 0 }

// event appends a schedule line. Lines must be deterministic functions of
// the seed: they feed ScheduleHash.
func (r *Report) event(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	r.Schedule = append(r.Schedule, line)
	if r.logf != nil {
		r.logf("  %s", line)
	}
}

// failf records a violated expectation.
func (r *Report) failf(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	r.Failures = append(r.Failures, line)
	if r.logf != nil {
		r.logf("  FAIL: %s", line)
	}
}

// ScheduleHash is the FNV-1a hash of the schedule, the value two runs of
// the same (campaign, seed, ops) must agree on.
func (r *Report) ScheduleHash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, line := range r.Schedule {
		for i := 0; i < len(line); i++ {
			h ^= uint64(line[i])
			h *= prime64
		}
		h ^= '\n'
		h *= prime64
	}
	return h
}

// Summary is a one-line result for logs.
func (r *Report) Summary() string {
	status := "PASS"
	if !r.Ok() {
		status = fmt.Sprintf("FAIL (%d)", len(r.Failures))
	}
	return fmt.Sprintf("%-14s seed=%d ops=%d injected=%d absorbed=%d audits=%d schedule=%016x %s",
		r.Campaign, r.Seed, r.Ops, r.Injected, r.Absorbed, r.Audits, r.ScheduleHash(), status)
}

// Campaign is one registered fault-injection scenario.
type Campaign struct {
	// Name selects the campaign on the command line.
	Name string
	// Desc is a one-line description for -list.
	Desc string
	run  func(cfg Config, r *Report) error
}

// campaigns is the registry, in fixed execution order.
var campaigns = []Campaign{
	{Name: "sweep-memcache", Desc: "every in-domain access and domain allocation of a memcached set/get/gets/incr/append/cas/delete mix with a CVE-2011-4971 bset, at depths 1 and 4, judged against the vanilla build", run: runSweep(&memcacheSweep)},
	{Name: "sweep-httpd", Desc: "every in-domain access and domain allocation of an httpd GET/404/HEAD/pipelined/close mix with CVE-2009-2629, a client certificate and CVE-2022-3786, judged against the vanilla build", run: runSweep(&httpdSweep)},
	{Name: "cluster", Desc: "consistent-hash router over three backends: bset attack absorbed in place, a killed backend demotes after exactly its failure threshold of degraded replies and spills, a quarantined backend is routed around and readmits through probation", run: runCluster},
}

// Campaigns lists the registered campaigns.
func Campaigns() []Campaign {
	out := make([]Campaign, len(campaigns))
	copy(out, campaigns)
	return out
}

// Run executes one campaign by name.
func Run(name string, cfg Config) (*Report, error) {
	reports, err := RunSelected([]string{name}, cfg)
	if err != nil {
		return nil, err
	}
	return reports[0], nil
}

// RunSelected executes the named campaigns (all when names is empty) in
// registry order, each once, and returns their reports.
func RunSelected(names []string, cfg Config) ([]*Report, error) {
	for _, n := range names {
		if !slices.ContainsFunc(campaigns, func(c Campaign) bool { return c.Name == n }) {
			return nil, fmt.Errorf("chaos: unknown campaign %q", n)
		}
	}
	var reports []*Report
	for _, c := range campaigns {
		if len(names) == 0 || slices.Contains(names, c.Name) {
			reports = append(reports, runOne(c, cfg))
		}
	}
	return reports, nil
}

func runOne(c Campaign, cfg Config) *Report {
	cfg.setDefaults()
	r := &Report{Campaign: c.Name, Seed: cfg.Seed, Ops: cfg.Ops, logf: cfg.Logf}
	if cfg.Logf != nil {
		cfg.Logf("campaign %s: seed=%d ops=%d", c.Name, cfg.Seed, cfg.Ops)
	}
	start := time.Now()
	if err := c.run(cfg, r); err != nil {
		r.failf("campaign error: %v", err)
	}
	r.Wall = time.Since(start)
	if r.Injected != r.Absorbed {
		r.failf("rewind accounting: injected %d faults but observed %d rewinds", r.Injected, r.Absorbed)
	}
	return r
}
