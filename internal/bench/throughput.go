package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"sdrad/internal/memcache"
	"sdrad/internal/ycsb"
)

// ThroughputReport captures the Memcached scaling curve measured through
// the server's real event-channel path: YCSB run-phase throughput per
// (variant, worker count, pipeline depth) cell. It round-trips through
// BENCH_throughput.json so CI can fail when a change costs the batched
// guard scopes their throughput.
type ThroughputReport struct {
	Schema string `json:"schema"`
	// CalibrationNs is the same machine-speed yardstick the substrate
	// report records; regression checks rescale the baseline by the
	// calibration ratio before comparing.
	CalibrationNs float64 `json:"calibration_ns"`
	// CPUs and GoVersion document the recording machine (informational,
	// not compared — the calibration ratio is the yardstick). Absent in
	// older baselines.
	CPUs      int    `json:"cpus,omitempty"`
	GoVersion string `json:"go_version,omitempty"`
	// Records/Operations document the workload the cells were measured
	// at (informational, not compared).
	Records    int `json:"records"`
	Operations int `json:"operations"`
	// RunTput maps "sdrad_w8_d16"-style cell names to run-phase ops/s.
	// Gated by CheckAgainst at throughputTolerancePct.
	RunTput map[string]float64 `json:"run_tput"`
	// ParityRatios maps "w8_d16"-style cell names to the MEDIAN PAIRED
	// sdrad/vanilla ratio of the same runs (see parity.go for why the
	// paired estimator, not the ratio of the two medians above, is the
	// statistic the parity gate trusts). Absent in pre-parity baselines.
	ParityRatios map[string]float64 `json:"parity_ratios,omitempty"`
}

// throughputSchema versions the JSON layout.
const throughputSchema = "sdrad-throughput-bench/v1"

// throughputTolerancePct is the throughput drop CI gates on. End-to-end
// server throughput on shared single-core runners is far noisier than
// the substrate micro ops, so the gate is correspondingly wider: it
// exists to catch "the batching amortization broke" (a 2-3x effect at
// depth 16), not single-digit drift.
const throughputTolerancePct = 25.0

// throughputCell names one measured cell.
func throughputCell(v memcache.Variant, workers, depth int) string {
	return fmt.Sprintf("%s_w%d_d%d", v, workers, depth)
}

// channelYCSB measures one (variant, workers, depth) cell through the
// event-channel path: the server runs `workers` real event-loop workers
// and each of `workers` client goroutines owns one connection, issuing
// the YCSB op stream with Conn.Do (depth 1) or Conn.DoPipeline (deeper).
// Unlike the Figure-4 inline harness — which bypasses the channel
// rendezvous to isolate variant cost — this path keeps the rendezvous
// in, because that is precisely what pipelined batches amortize: one
// channel round and one guard scope now carry up to MaxBatch requests.
func channelYCSB(variant memcache.Variant, workers, depth int, sc Scale, ops int) (float64, error) {
	runtime.GC()
	s, err := memcache.NewServer(memcache.Config{
		Variant:    variant,
		Workers:    workers,
		HashPower:  15,
		CacheBytes: uint64(sc.MemcachedRecords)*1536 + 8<<20,
	})
	if err != nil {
		return 0, err
	}
	defer s.Stop()
	runner, err := ycsb.NewRunner(ycsb.Config{
		Records:    sc.MemcachedRecords,
		Operations: ops,
	})
	if err != nil {
		return 0, err
	}
	cfg := runner.Config()
	if depth > s.MaxBatch() {
		depth = s.MaxBatch()
	}

	// Load phase (unmeasured): populate the keyspace pipelined at the
	// batch limit so the measured phase starts from identical state no
	// matter the cell's depth.
	if err := eachConn(s, workers, cfg.Records, func(w, lo, hi int, conn *memcache.Conn) error {
		reqs := make([][]byte, 0, s.MaxBatch())
		for i := lo; i < hi; i += len(reqs) {
			reqs = reqs[:0]
			for j := i; j < hi && len(reqs) < s.MaxBatch(); j++ {
				reqs = append(reqs, memcache.FormatSet(ycsb.Key(j), ycsb.Value(j, cfg.ValueSize), 0))
			}
			for _, r := range conn.DoPipeline(reqs) {
				if r.Err != nil || !bytes.Equal(r.Resp, []byte("STORED\r\n")) {
					return fmt.Errorf("bench: load: err=%v resp=%q", r.Err, r.Resp)
				}
			}
		}
		return nil
	}, nil); err != nil {
		return 0, err
	}

	// Run phase: plan depth-sized bursts and issue each as one pipeline.
	plan := runner.OpPlanner()
	var elapsed time.Duration
	if err := eachConn(s, workers, ops, func(w, lo, hi int, conn *memcache.Conn) error {
		rng := rand.New(rand.NewSource(int64(w)*7919 + 17))
		burst := make([]ycsb.Op, depth)
		reqs := make([][]byte, depth)
		for i := lo; i < hi; {
			n := depth
			if hi-i < n {
				n = hi - i
			}
			plan(rng, burst[:n])
			for j, op := range burst[:n] {
				if op.Read {
					reqs[j] = memcache.FormatGet(ycsb.Key(op.Index))
				} else {
					reqs[j] = memcache.FormatSet(ycsb.Key(op.Index), ycsb.Value(op.Index, cfg.ValueSize), 0)
				}
			}
			var res []memcache.PipelineResult
			if n == 1 {
				resp, closed, err := conn.Do(reqs[0])
				res = []memcache.PipelineResult{{Resp: resp, Closed: closed, Err: err}}
			} else {
				res = conn.DoPipeline(reqs[:n])
			}
			for j, r := range res {
				if r.Err != nil || r.Closed {
					return fmt.Errorf("bench: run op %d: closed=%v err=%v", i+j, r.Closed, r.Err)
				}
				if burst[j].Read {
					if _, _, ok := memcache.ParseGetValue(r.Resp); !ok {
						return fmt.Errorf("bench: run op %d: miss on loaded key", i+j)
					}
				} else if !bytes.Equal(r.Resp, []byte("STORED\r\n")) {
					return fmt.Errorf("bench: run op %d: %q", i+j, r.Resp)
				}
			}
			i += n
		}
		return nil
	}, &elapsed); err != nil {
		return 0, err
	}
	return float64(ops) / elapsed.Seconds(), nil
}

// eachConn fans [0, total) out over `workers` goroutines, each owning a
// fresh connection (NewConn pins round-robin, so with one goroutine per
// worker every event loop serves exactly one client). When elapsed is
// non-nil, the fan-out is gated so it times the barrier-to-last-finish
// wall clock the way inlinePhase does.
func eachConn(s *memcache.Server, workers, total int, body func(w, lo, hi int, conn *memcache.Conn) error,
	elapsed *time.Duration) error {
	conns := make([]*memcache.Conn, workers)
	for w := range conns {
		conns[w] = s.NewConn()
	}
	errs := make(chan error, workers)
	startGate := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-startGate
			errs <- body(w, w*total/workers, (w+1)*total/workers, conns[w])
		}(w)
	}
	var start time.Time
	if elapsed != nil {
		start = time.Now()
	}
	close(startGate)
	wg.Wait()
	if elapsed != nil {
		*elapsed = time.Since(start)
	}
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunThroughput measures the Memcached scaling curve — vanilla and sdrad
// throughput across worker counts and pipeline depths — returning the
// machine-readable report and a printable table.
func RunThroughput(sc Scale, workerCounts, depths []int) (*ThroughputReport, *Table, error) {
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 2, 4, 8}
	}
	if len(depths) == 0 {
		depths = []int{1, 4, 16}
	}
	ops := sc.MemcachedOps
	repeats := 5
	if sc.MemcachedOps <= Quick.MemcachedOps {
		repeats = 1
	} else {
		// Stretch the run phase the way the Figure-4 and substrate cells
		// do: at stock full scale one GC pause moves a cell by ~10%.
		ops *= 2
	}
	rep := &ThroughputReport{
		Schema:       throughputSchema,
		CPUs:         runtime.NumCPU(),
		GoVersion:    runtime.Version(),
		Records:      sc.MemcachedRecords,
		Operations:   ops,
		RunTput:      make(map[string]float64, 2*len(workerCounts)*len(depths)),
		ParityRatios: make(map[string]float64, len(workerCounts)*len(depths)),
	}
	t := &Table{
		ID:     "Scaling",
		Title:  "Memcached YCSB channel-path throughput by workers and pipeline depth",
		Header: []string{"workers", "depth", "vanilla", "sdrad", "paired ratio"},
		Notes: []string{
			fmt.Sprintf("workload: %d records x 1KiB, %d ops, 95/5 read/update, Zipfian, via Conn.Do/DoPipeline", sc.MemcachedRecords, ops),
			"depth>1 sends one pipelined burst per round: the hardened build handles it in ONE guard scope",
			"paired ratio = median over rounds of (sdrad tput / vanilla tput of the SAME round)",
			"gated in CI against BENCH_throughput.json (>25% speed-adjusted throughput drop fails)",
		},
	}
	for _, workers := range workerCounts {
		for _, depth := range depths {
			// Each cell is measured with the paired harness from parity.go:
			// back-to-back (vanilla, sdrad) rounds with alternating order,
			// so the recorded ratio reflects variant cost rather than the
			// scheduler drift between two blocks of repeats minutes apart.
			ratio, van, sd, err := pairedCell(workers, depth, repeats, sc, ops)
			if err != nil {
				return nil, nil, fmt.Errorf("throughput w%d/d%d: %w", workers, depth, err)
			}
			rep.RunTput[throughputCell(memcache.VariantVanilla, workers, depth)] = van
			rep.RunTput[throughputCell(memcache.VariantSDRaD, workers, depth)] = sd
			rep.ParityRatios[parityCell(workers, depth)] = ratio
			t.AddRow(
				fmt.Sprintf("%d", workers),
				fmt.Sprintf("%d", depth),
				fmtTput(van),
				fmtTput(sd),
				fmt.Sprintf("%.3fx", ratio),
			)
		}
	}
	rep.CalibrationNs = calibrationNs()
	return rep, t, nil
}

// WriteJSON writes the report to path.
func (r *ThroughputReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadThroughputBaseline reads a previously committed report.
func LoadThroughputBaseline(path string) (*ThroughputReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r ThroughputReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	return &r, nil
}

// CheckAgainst compares the report's cells with a baseline, returning an
// error naming every cell whose throughput dropped by more than the
// tolerance. The baseline is first rescaled by the calibration speed
// ratio (throughput scales inversely with per-op cost), so a baseline
// committed from one machine transfers to a runner with a different
// clock. Cells missing from either side are ignored.
func (r *ThroughputReport) CheckAgainst(base *ThroughputReport) error {
	speed := 1.0
	if base.CalibrationNs > 0 && r.CalibrationNs > 0 {
		speed = r.CalibrationNs / base.CalibrationNs
	}
	var regressions []string
	for _, k := range sortedKeys(base.RunTput) {
		want := base.RunTput[k] / speed
		cur, ok := r.RunTput[k]
		if !ok || want <= 0 {
			continue
		}
		if pct := (want - cur) / want * 100; pct > throughputTolerancePct {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.0f -> %.0f ops/s (-%.1f%% vs speed-adjusted baseline)", k, want, cur, pct))
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("bench: throughput regression beyond %.0f%%: %v",
			throughputTolerancePct, regressions)
	}
	return nil
}
