package bench

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"time"

	"sdrad/internal/memcache"
	"sdrad/internal/ycsb"
)

// RecoveryReport quantifies the paper's central resilience claim in
// cost terms: recovering a compromised component by rewinding its
// domain versus recovering it the traditional way, by restarting the
// process and rebuilding its state. Each recovery cycle is driven
// through the hardened memcached server — one CVE-2011-4971 overflow,
// one absorbed rewind, service re-verified — against a reference arm,
// measured in the same run, that pays a full server teardown, rebuild,
// and dataset reload per cycle.
type RecoveryReport struct {
	// RewindWallNs/RestartWallNs: median wall-clock per recovery.
	RewindWallNs  float64
	RestartWallNs float64
	// RewindCPUSec/RestartCPUSec: mean rusage (user+system) CPU-seconds
	// per recovery, from RUSAGE_SELF deltas around each arm.
	RewindCPUSec  float64
	RestartCPUSec float64
	// WallRatio: restart cost over rewind cost (>1 means rewinding is
	// cheaper). Check holds it to recoveryRatioFloor.
	WallRatio float64
}

// recoveryRatioFloor is the claim the experiment states: a rewind
// recovery must stay at least this many times cheaper (wall clock) than
// a process restart. The measured gap is orders of magnitude; the floor
// only catches the claim collapsing.
const recoveryRatioFloor = 3.0

// recoveryKey derives the YCSB key a cycle re-verifies after recovery.
func recoveryKey(records, cycle int) string {
	return ycsb.Key(cycle % records)
}

// loadRecoveryDataset populates the server with the benchmark dataset through
// one pipelined connection — the state the restart arm pays to rebuild.
func loadRecoveryDataset(s *memcache.Server, records int) error {
	conn := s.NewConn()
	reqs := make([][]byte, 0, s.MaxBatch())
	for i := 0; i < records; i += len(reqs) {
		reqs = reqs[:0]
		for j := i; j < records && len(reqs) < s.MaxBatch(); j++ {
			reqs = append(reqs, memcache.FormatSet(ycsb.Key(j), ycsb.Value(j, 128), 0))
		}
		for _, r := range conn.DoPipeline(reqs) {
			if r.Err != nil || !bytes.Equal(r.Resp, []byte("STORED\r\n")) {
				return fmt.Errorf("bench: recovery load: err=%v resp=%q", r.Err, r.Resp)
			}
		}
	}
	return nil
}

// verifyGet checks post-recovery service: the key must be served with
// its value intact.
func verifyGet(conn *memcache.Conn, key string) error {
	resp, closed, err := conn.Do(memcache.FormatGet(key))
	if err != nil || closed {
		return fmt.Errorf("bench: recovery verify: closed=%v err=%v", closed, err)
	}
	if _, _, ok := memcache.ParseGetValue(resp); !ok {
		return fmt.Errorf("bench: recovery verify: miss (%q)", resp)
	}
	return nil
}

// measureRewindRecovery times `cycles` rewind recoveries: attack →
// absorbed rewind (connection closed, domain discarded) → reconnect →
// service verified on the surviving dataset.
func measureRewindRecovery(records, cycles int) (wallNs []float64, cpuSec float64, err error) {
	s, err := memcache.NewServer(memcache.Config{
		Variant:   memcache.VariantSDRaD,
		Workers:   1,
		HashPower: 15,
	})
	if err != nil {
		return nil, 0, err
	}
	defer s.Stop()
	if err := loadRecoveryDataset(s, records); err != nil {
		return nil, 0, err
	}
	attack := memcache.FormatBSet("atk", 1<<20, nil)
	conn := s.NewConn()
	recoverOnce := func(cycle int) error {
		_, closed, err := conn.Do(attack)
		if err != nil {
			return fmt.Errorf("bench: rewind attack: %w", err)
		}
		if !closed {
			return fmt.Errorf("bench: rewind attack did not close the connection")
		}
		conn = s.NewConn()
		return verifyGet(conn, recoveryKey(records, cycle))
	}
	// Warm-up recovery: first rewind takes the lazy re-init path.
	if err := recoverOnce(0); err != nil {
		return nil, 0, err
	}
	preRewinds := s.Rewinds()
	runtime.GC()
	wallNs = make([]float64, cycles)
	cpu0 := ycsb.ProcessCPUSeconds()
	for i := 0; i < cycles; i++ {
		t0 := time.Now()
		if err := recoverOnce(i); err != nil {
			return nil, 0, err
		}
		wallNs[i] = float64(time.Since(t0).Nanoseconds())
	}
	cpuSec = ycsb.ProcessCPUSeconds() - cpu0
	if got := s.Rewinds() - preRewinds; got != int64(cycles) {
		return nil, 0, fmt.Errorf("bench: rewind arm absorbed %d rewinds, want %d", got, cycles)
	}
	return wallNs, cpuSec, nil
}

// measureRestartRecovery times `cycles` process-restart recoveries: the
// control arm tears the vanilla server down (the process the overflow
// killed), builds a fresh one, reloads the dataset, and re-verifies
// service — the cost the paper's rewind mechanism avoids.
func measureRestartRecovery(records, cycles int) (wallNs []float64, cpuSec float64, err error) {
	cfg := memcache.Config{
		Variant:   memcache.VariantVanilla,
		Workers:   1,
		HashPower: 15,
	}
	s, err := memcache.NewServer(cfg)
	if err != nil {
		return nil, 0, err
	}
	if err := loadRecoveryDataset(s, records); err != nil {
		s.Stop()
		return nil, 0, err
	}
	runtime.GC()
	wallNs = make([]float64, cycles)
	cpu0 := ycsb.ProcessCPUSeconds()
	for i := 0; i < cycles; i++ {
		t0 := time.Now()
		s.Stop()
		s, err = memcache.NewServer(cfg)
		if err != nil {
			return nil, 0, err
		}
		if err := loadRecoveryDataset(s, records); err != nil {
			s.Stop()
			return nil, 0, err
		}
		if err := verifyGet(s.NewConn(), recoveryKey(records, i)); err != nil {
			s.Stop()
			return nil, 0, err
		}
		wallNs[i] = float64(time.Since(t0).Nanoseconds())
	}
	cpuSec = ycsb.ProcessCPUSeconds() - cpu0
	s.Stop()
	return wallNs, cpuSec, nil
}

func medianFloat(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// RunRecovery measures both recovery arms and returns the report plus a
// printable table.
func RunRecovery(sc Scale) (*RecoveryReport, *Table, error) {
	records := sc.MemcachedRecords
	cycles := 8
	if sc.MemcachedOps > Quick.MemcachedOps {
		cycles = 16
	}
	rewindWall, rewindCPU, err := measureRewindRecovery(records, cycles)
	if err != nil {
		return nil, nil, fmt.Errorf("recovery rewind arm: %w", err)
	}
	restartWall, restartCPU, err := measureRestartRecovery(records, cycles)
	if err != nil {
		return nil, nil, fmt.Errorf("recovery restart arm: %w", err)
	}
	rep := &RecoveryReport{
		RewindWallNs:  medianFloat(rewindWall),
		RestartWallNs: medianFloat(restartWall),
		RewindCPUSec:  rewindCPU / float64(cycles),
		RestartCPUSec: restartCPU / float64(cycles),
	}
	if rep.RewindWallNs > 0 {
		rep.WallRatio = rep.RestartWallNs / rep.RewindWallNs
	}
	t := &Table{
		ID:     "Recovery",
		Title:  "Recovery cost per absorbed attack: domain rewind vs process restart",
		Header: []string{"arm", "wall/recovery", "cpu-sec/recovery", "restart/rewind"},
		Notes: []string{
			fmt.Sprintf("%d recovery cycles per arm; restart arm reloads %d records the rewind arm keeps", cycles, records),
			"rewind arm: CVE-2011-4971 overflow -> absorbed rewind -> reconnect -> verified get",
			"restart arm: server teardown -> rebuild -> dataset reload -> verified get",
			fmt.Sprintf("claim: restart/rewind wall ratio >= %.0fx", recoveryRatioFloor),
		},
	}
	t.AddRow("rewind", fmtDur(time.Duration(rep.RewindWallNs)), fmt.Sprintf("%.6f", rep.RewindCPUSec), "1.0x")
	t.AddRow("restart", fmtDur(time.Duration(rep.RestartWallNs)), fmt.Sprintf("%.6f", rep.RestartCPUSec),
		fmt.Sprintf("%.1fx", rep.WallRatio))
	return rep, t, nil
}

// Check fails when the run's own rewind-vs-restart wall ratio is below
// the floor (the resilience claim itself).
func (r *RecoveryReport) Check() error {
	if r.WallRatio < recoveryRatioFloor {
		return fmt.Errorf("%w: recovery ratio %.2fx below floor %.0fx: rewind (%.0fns) is no longer clearly cheaper than restart (%.0fns)",
			errClaim, r.WallRatio, recoveryRatioFloor, r.RewindWallNs, r.RestartWallNs)
	}
	return nil
}
