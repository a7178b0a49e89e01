package bench

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"sdrad/internal/ckpt"
	"sdrad/internal/memcache"
	"sdrad/internal/telemetry"
	"sdrad/internal/ycsb"
)

var errUnexpected = errors.New("bench: unexpected memcached response")

// memcachedServer builds a server sized for the YCSB scale, with an
// optional telemetry recorder attached to its library. The Figure-4
// harness drives the engine through inline worker threads, so the server
// itself needs only one event-loop worker regardless of the measured
// parallelism (each live worker thread pins a protection key; 8 inline
// plus 8 idle event loops would exhaust the 15 keys).
func memcachedServer(variant memcache.Variant, sc Scale, rec *telemetry.Recorder) (*memcache.Server, error) {
	return memcache.NewServer(memcache.Config{
		Variant:    variant,
		Workers:    1,
		HashPower:  15,
		CacheBytes: uint64(sc.MemcachedRecords)*1536 + 8<<20,
		Telemetry:  rec,
	})
}

// inlineDo issues one request through an inline worker and validates the
// response for the YCSB op kind.
func inlineSet(do memcache.InlineDo, conn *memcache.Conn, key string, value []byte) error {
	resp, _, err := do(conn, memcache.FormatSet(key, value, 0))
	if err != nil {
		return err
	}
	if !bytes.Equal(resp, []byte("STORED\r\n")) {
		return fmt.Errorf("%w: %q", errUnexpected, resp)
	}
	return nil
}

func inlineGet(do memcache.InlineDo, conn *memcache.Conn, key string) error {
	resp, _, err := do(conn, memcache.FormatGet(key))
	if err != nil {
		return err
	}
	if _, _, ok := memcache.ParseGetValue(resp); !ok {
		return fmt.Errorf("%w: miss", errUnexpected)
	}
	return nil
}

// runMemcachedYCSB measures one (variant, workers) cell of Figure 4.
// Each worker is an inline closed-loop client-server thread: the YCSB op
// stream executes directly on the worker thread with no event-channel hop
// (on the single-core machines this repository targets, the channel
// rendezvous contributes more scheduler noise than the variant difference
// being measured). Contention on the shared cache lock across workers is
// preserved — that is the real serialization point, as in Memcached.
func runMemcachedYCSB(variant memcache.Variant, workers int, sc Scale) (load, run ycsb.Stats, err error) {
	// Level the Go-runtime playing field between cells: each cell
	// allocates tens of MiB of simulated pages, and carried-over GC debt
	// otherwise taxes whichever cell runs next.
	runtime.GC()
	s, err := memcachedServer(variant, sc, nil)
	if err != nil {
		return load, run, err
	}
	defer s.Stop()
	runner, err := ycsb.NewRunner(ycsb.Config{
		Records:    sc.MemcachedRecords,
		Operations: sc.MemcachedOps,
	})
	if err != nil {
		return load, run, err
	}
	cfg := runner.Config()

	load, err = inlineLoadPhase(s, workers, cfg)
	if err != nil {
		return load, run, err
	}
	run, err = inlineRunPhase(s, workers, runner)
	return load, run, err
}

// inlinePhase fans the op range out over one inline worker thread each and
// reports aggregate throughput over the barrier-to-last-finish wall time
// plus the process CPU the phase consumed.
func inlinePhase(s *memcache.Server, workers int, name string, total int,
	op func(do memcache.InlineDo, conn *memcache.Conn, rng *rand.Rand, i int) error) (ycsb.Stats, error) {
	startGate := make(chan struct{})
	readyCh := make(chan error, workers)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			started := false
			err := s.RunInline(fmt.Sprintf("%s-%d", name, w), func(newConn func() *memcache.Conn, do memcache.InlineDo) error {
				conn := newConn()
				rng := rand.New(rand.NewSource(int64(w)*7919 + 17))
				started = true
				readyCh <- nil
				<-startGate
				lo, hi := w*total/workers, (w+1)*total/workers
				for i := lo; i < hi; i++ {
					if err := op(do, conn, rng, i); err != nil {
						return err
					}
				}
				return nil
			})
			if !started {
				// The worker failed before reaching the gate (e.g.
				// provisioning error): unblock the coordinator.
				readyCh <- err
			}
			errs <- err
		}(w)
	}
	var firstErr error
	for i := 0; i < workers; i++ {
		if err := <-readyCh; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	cpu0 := ycsb.ProcessCPUSeconds()
	start := time.Now()
	close(startGate)
	for i := 0; i < workers; i++ {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	elapsed := time.Since(start)
	cpu := ycsb.ProcessCPUSeconds() - cpu0
	if firstErr != nil {
		return ycsb.Stats{}, firstErr
	}
	return ycsb.Stats{
		Phase:      name,
		Operations: total,
		Elapsed:    elapsed,
		Throughput: float64(total) / elapsed.Seconds(),
		CPUSeconds: cpu,
	}, nil
}

// inlineLoadPhase populates the keyspace through inline workers.
func inlineLoadPhase(s *memcache.Server, workers int, cfg ycsb.Config) (ycsb.Stats, error) {
	return inlinePhase(s, workers, "load", cfg.Records,
		func(do memcache.InlineDo, conn *memcache.Conn, rng *rand.Rand, i int) error {
			return inlineSet(do, conn, ycsb.Key(i), ycsb.Value(i, cfg.ValueSize))
		})
}

// inlineRunPhase issues one full transaction phase through inline workers.
// Each call draws a fresh identically-seeded key chooser, so repeated run
// phases against the same server replay the same op stream — what lets
// the telemetry-overhead measurement compare arms on one server instance.
func inlineRunPhase(s *memcache.Server, workers int, runner *ycsb.Runner) (ycsb.Stats, error) {
	cfg := runner.Config()
	chooser := runner.KeyChooser()
	return inlinePhase(s, workers, "run", cfg.Operations,
		func(do memcache.InlineDo, conn *memcache.Conn, rng *rand.Rand, i int) error {
			idx := chooser(rng)
			if rng.Float64() < cfg.ReadProportion {
				return inlineGet(do, conn, ycsb.Key(idx))
			}
			return inlineSet(do, conn, ycsb.Key(idx), ycsb.Value(idx, cfg.ValueSize))
		})
}

// medianMemcachedYCSB repeats a cell and keeps the run with the median
// run-phase throughput, damping scheduler noise.
func medianMemcachedYCSB(variant memcache.Variant, workers, repeats int, sc Scale) (ycsb.Stats, ycsb.Stats, error) {
	type sample struct{ load, run ycsb.Stats }
	samples := make([]sample, 0, repeats)
	for i := 0; i < repeats; i++ {
		load, run, err := runMemcachedYCSB(variant, workers, sc)
		if err != nil {
			return load, run, err
		}
		samples = append(samples, sample{load, run})
	}
	sort.Slice(samples, func(i, j int) bool {
		return samples[i].run.Throughput < samples[j].run.Throughput
	})
	mid := samples[len(samples)/2]
	return mid.load, mid.run, nil
}

// Fig4MemcachedThroughput regenerates Figure 4: YCSB load/run throughput
// of the three Memcached builds across worker counts.
func Fig4MemcachedThroughput(sc Scale, workerCounts []int) (*Table, error) {
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 2, 4, 8}
	}
	t := &Table{
		ID:     "Fig.4",
		Title:  "Memcached YCSB throughput by variant and worker threads",
		Header: []string{"workers", "variant", "load tput", "run tput", "load vs vanilla", "run vs vanilla"},
		Notes: []string{
			fmt.Sprintf("workload: %d records x 1KiB, %d ops, 95/5 read/update, Zipfian (paper: 1e7/1e8)", sc.MemcachedRecords, sc.MemcachedOps),
			"paper: TLSF <1%; SDRaD 2.9-7.1% overhead depending on worker count",
		},
	}
	repeats := 5
	if sc.MemcachedOps <= Quick.MemcachedOps {
		repeats = 1
	} else {
		// Stretch the run phase: at the stock full scale it lasts well
		// under a second, so one GC pause moves a cell by ~10%. 4x the
		// ops averages those events out.
		sc.MemcachedOps *= 4
	}
	t.Notes[0] = fmt.Sprintf("workload: %d records x 1KiB, %d ops, 95/5 read/update, Zipfian (paper: 1e7/1e8)", sc.MemcachedRecords, sc.MemcachedOps)
	for _, workers := range workerCounts {
		var baseLoad, baseRun float64
		for _, v := range []memcache.Variant{memcache.VariantVanilla, memcache.VariantTLSF, memcache.VariantSDRaD} {
			load, run, err := medianMemcachedYCSB(v, workers, repeats, sc)
			if err != nil {
				return nil, fmt.Errorf("fig4 %s/%d: %w", v, workers, err)
			}
			if v == memcache.VariantVanilla {
				baseLoad, baseRun = load.Throughput, run.Throughput
			}
			t.AddRow(
				fmt.Sprintf("%d", workers),
				v.String(),
				fmtTput(load.Throughput),
				fmtTput(run.Throughput),
				fmtPct(load.Throughput, baseLoad),
				fmtPct(run.Throughput, baseRun),
			)
		}
	}
	return t, nil
}

// MemcachedRewindLatency regenerates the §V-A recovery comparison:
// SDRaD's abnormal-exit latency versus restarting the server and
// reloading its dataset, with the CRIU-style checkpoint/restore costs as
// an extra reference point.
func MemcachedRewindLatency(sc Scale) (*Table, error) {
	t := &Table{
		ID:     "Tab.V-A",
		Title:  "Memcached recovery: rewind vs restart+reload vs checkpoint/restore",
		Header: []string{"mechanism", "mean", "stddev", "state preserved"},
		Notes: []string{
			"paper: rewind 3.5µs (σ=0.9µs); container restart ~0.4s; restart+10GiB reload ~2min",
			fmt.Sprintf("reload here rebuilds %d records of 1KiB", sc.MemcachedRecords),
		},
	}

	// Rewind latency on the hardened build (CVE-2011-4971 analog).
	s, err := memcachedServer(memcache.VariantSDRaD, sc, nil)
	if err != nil {
		return nil, err
	}
	samples := make([]time.Duration, 0, sc.RewindTrials)
	for i := 0; i < sc.RewindTrials; i++ {
		evil := s.NewConn()
		start := time.Now()
		_, closed, err := evil.Do(memcache.FormatBSet("atk", 64<<20, nil))
		lat := time.Since(start)
		if err != nil || !closed {
			s.Stop()
			return nil, fmt.Errorf("bench: attack %d not recovered (closed=%v err=%v)", i, closed, err)
		}
		samples = append(samples, lat)
	}
	if got := s.Rewinds(); got != int64(sc.RewindTrials) {
		s.Stop()
		return nil, fmt.Errorf("bench: rewinds = %d, want %d", got, sc.RewindTrials)
	}
	mean, std := meanStd(samples)
	t.AddRow("SDRaD rewind (per attack)", fmtDur(mean), fmtDur(std), "all other clients + full cache")

	// Checkpoint/restore on the loaded server.
	if err := loadRecords(s, sc.MemcachedRecords); err != nil {
		s.Stop()
		return nil, err
	}
	img := ckpt.Capture(s.Process().AddressSpace())
	_, restoreDur, err := img.Restore()
	if err != nil {
		s.Stop()
		return nil, err
	}
	t.AddRow("checkpoint capture (CRIU-style)", fmtDur(img.CaptureCost()), "-",
		fmt.Sprintf("full image: %d pages", img.Pages()))
	t.AddRow("checkpoint restore", fmtDur(restoreDur), "-", "state as of last checkpoint")
	s.Stop()

	// Restart + reload: build a fresh server and reload every record.
	restartSamples := make([]time.Duration, 0, 3)
	for i := 0; i < 3; i++ {
		start := time.Now()
		fresh, err := memcachedServer(memcache.VariantSDRaD, sc, nil)
		if err != nil {
			return nil, err
		}
		if err := loadRecords(fresh, sc.MemcachedRecords); err != nil {
			fresh.Stop()
			return nil, err
		}
		restartSamples = append(restartSamples, time.Since(start))
		fresh.Stop()
	}
	rmean, rstd := meanStd(restartSamples)
	t.AddRow("restart + reload dataset", fmtDur(rmean), fmtDur(rstd), "nothing (cold start)")
	return t, nil
}

// loadRecords fills a server with n YCSB-style records.
func loadRecords(s *memcache.Server, n int) error {
	conn := s.NewConn()
	for i := 0; i < n; i++ {
		resp, _, err := conn.Do(memcache.FormatSet(ycsb.Key(i), ycsb.Value(i, 1024), 0))
		if err != nil {
			return err
		}
		if !bytes.Equal(resp, []byte("STORED\r\n")) {
			return fmt.Errorf("bench: load set failed: %q", resp)
		}
	}
	return nil
}

// MemcachedMemoryOverhead regenerates the §V-A RSS comparison: mapped
// bytes after the YCSB load phase, SDRaD vs baseline.
func MemcachedMemoryOverhead(sc Scale) (*Table, error) {
	t := &Table{
		ID:     "Tab.V-A-mem",
		Title:  "Memcached memory overhead after load (mapped bytes, RSS analog)",
		Header: []string{"variant", "mapped", "vs vanilla"},
		Notes:  []string{"paper: mean RSS increase 0.4% for SDRaD"},
	}
	var base float64
	for _, v := range []memcache.Variant{memcache.VariantVanilla, memcache.VariantTLSF, memcache.VariantSDRaD} {
		s, err := memcachedServer(v, sc, nil)
		if err != nil {
			return nil, err
		}
		if err := loadRecords(s, sc.MemcachedRecords); err != nil {
			s.Stop()
			return nil, err
		}
		mapped := float64(s.MappedBytes())
		if v == memcache.VariantVanilla {
			base = mapped
		}
		t.AddRow(v.String(), fmt.Sprintf("%.1f MiB", mapped/(1<<20)), fmtPct(mapped, base))
		s.Stop()
	}
	return t, nil
}
