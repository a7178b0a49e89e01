package bench

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sdrad/internal/cluster"
	"sdrad/internal/memcache"
	"sdrad/internal/ycsb"
)

// ClusterReport captures the router scaling curve: YCSB throughput
// routed through the consistent-hash front-end as the backend count
// grows, plus the availability held while one backend is killed
// mid-run.
type ClusterReport struct {
	// Scaling3v1 is routed run-phase ops/s with three backends over the
	// same with one. Printed, not judged: N backends cannot run in
	// parallel on fewer than N cores, and no run on enough cores has
	// ever been recorded to say where a floor belongs.
	Scaling3v1 float64
	// AvailabilityKill is the fraction of requests answered non-degraded
	// while one of three backends was killed at the run's midpoint: the
	// kill costs a bounded burst of degraded replies (the failure
	// threshold times the batch depth, plus probation flaps), then the
	// dead backend's keys spill to ring successors. Check holds it to
	// clusterAvailabilityFloor.
	AvailabilityKill float64
	// DegradedKill counts the degraded replies behind AvailabilityKill.
	DegradedKill int
}

// clusterAvailabilityFloor is the claim the kill cell states: at least
// this fraction of requests must be answered non-degraded while a third
// of the fleet dies mid-run.
const clusterAvailabilityFloor = 0.95

// clusterFleet is one router fronting n in-process backends.
type clusterFleet struct {
	backends []*memcache.Server
	lns      []net.Listener
	rt       *cluster.Router
	rln      net.Listener
}

func startClusterFleet(n int, records int, health cluster.HealthConfig) (*clusterFleet, error) {
	f := &clusterFleet{}
	var cfgBackends []cluster.Backend
	for i := 0; i < n; i++ {
		srv, err := memcache.NewServer(memcache.Config{
			Variant:    memcache.VariantSDRaD,
			Workers:    1,
			HashPower:  15,
			CacheBytes: uint64(records)*1536 + 8<<20,
		})
		if err != nil {
			f.stop()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Stop()
			f.stop()
			return nil, err
		}
		go func() { _ = srv.ServeListener(ln) }()
		f.backends = append(f.backends, srv)
		f.lns = append(f.lns, ln)
		cfgBackends = append(cfgBackends, cluster.Backend{
			Name: fmt.Sprintf("b%d", i),
			Addr: ln.Addr().String(),
		})
	}
	rt, err := cluster.NewRouter(cluster.Config{
		Backends: cfgBackends,
		PoolSize: 4,
		Health:   health,
	})
	if err != nil {
		f.stop()
		return nil, err
	}
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rt.Stop()
		f.stop()
		return nil, err
	}
	go func() { _ = rt.Serve(rln) }()
	f.rt, f.rln = rt, rln
	return f, nil
}

func (f *clusterFleet) stop() {
	if f.rt != nil {
		f.rt.Stop()
	}
	for i, s := range f.backends {
		s.Stop()
		_ = f.lns[i].Close()
	}
}

func (f *clusterFleet) addr() string { return f.rln.Addr().String() }

// killBackend stops backend i in place, as a mid-run crash would.
func (f *clusterFleet) killBackend(i int) {
	f.backends[i].Stop()
	_ = f.lns[i].Close()
}

// driveRouted loads the keyspace through the router, then measures the
// run phase: `clients` connections each issuing depth-sized pipelined
// YCSB bursts. onOp, when non-nil, sees every reply (the kill
// experiment counts degraded answers there); its op counter is global
// across clients.
func driveRouted(addr string, sc Scale, ops, clients, depth int,
	onOp func(n int, degraded bool)) (float64, error) {
	runner, err := ycsb.NewRunner(ycsb.Config{
		Records:    sc.MemcachedRecords,
		Operations: ops,
	})
	if err != nil {
		return 0, err
	}
	cfg := runner.Config()

	// Load phase (unmeasured), pipelined through the router.
	loadConn, err := cluster.Dial(addr, 2*time.Second, 10*time.Second)
	if err != nil {
		return 0, err
	}
	reqs := make([][]byte, 0, depth)
	for i := 0; i < cfg.Records; i += len(reqs) {
		reqs = reqs[:0]
		for j := i; j < cfg.Records && len(reqs) < depth; j++ {
			reqs = append(reqs, memcache.FormatSet(ycsb.Key(j), ycsb.Value(j, cfg.ValueSize), 0))
		}
		out, err := loadConn.DoBatch(reqs)
		if err != nil {
			_ = loadConn.Close()
			return 0, fmt.Errorf("bench: cluster load: %w", err)
		}
		for _, rep := range out {
			if !bytes.Equal(rep, []byte("STORED\r\n")) {
				_ = loadConn.Close()
				return 0, fmt.Errorf("bench: cluster load: %q", rep)
			}
		}
	}
	_ = loadConn.Close()

	// Run phase: each client owns one connection and a deterministic op
	// stream; a global counter drives onOp so the kill trigger fires at
	// the fleet-wide midpoint.
	plan := runner.OpPlanner()
	var opCount atomic.Int64
	errs := make(chan error, clients)
	startGate := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs <- func() error {
				conn, err := cluster.Dial(addr, 2*time.Second, 10*time.Second)
				if err != nil {
					return err
				}
				defer func() { _ = conn.Close() }()
				rng := rand.New(rand.NewSource(int64(c)*7919 + 23))
				lo, hi := c*ops/clients, (c+1)*ops/clients
				burst := make([]ycsb.Op, depth)
				batch := make([][]byte, depth)
				<-startGate
				for i := lo; i < hi; {
					n := depth
					if hi-i < n {
						n = hi - i
					}
					plan(rng, burst[:n])
					for j, op := range burst[:n] {
						if op.Read {
							batch[j] = memcache.FormatGet(ycsb.Key(op.Index))
						} else {
							batch[j] = memcache.FormatSet(ycsb.Key(op.Index), ycsb.Value(op.Index, cfg.ValueSize), 0)
						}
					}
					out, err := conn.DoBatch(batch[:n])
					if err != nil {
						return fmt.Errorf("client %d op %d: %w", c, i, err)
					}
					for j, rep := range out {
						degraded := bytes.HasPrefix(rep, []byte("SERVER_ERROR"))
						if onOp != nil {
							onOp(int(opCount.Add(1)), degraded)
						}
						if degraded {
							if onOp == nil {
								return fmt.Errorf("client %d op %d: degraded reply %q from a healthy fleet", c, i+j, rep)
							}
							continue
						}
						if !burst[j].Read && !bytes.Equal(rep, []byte("STORED\r\n")) {
							return fmt.Errorf("client %d op %d: %q", c, i+j, rep)
						}
					}
					i += n
				}
				return nil
			}()
		}(c)
	}
	start := time.Now()
	close(startGate)
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return float64(ops) / elapsed.Seconds(), nil
}

// RunCluster measures the routed scaling curve (1, 2, 3 backends) and
// the availability held through a mid-run backend kill, returning the
// report and a printable table.
func RunCluster(sc Scale) (*ClusterReport, *Table, error) {
	const clients, depth = 4, 16
	ops := sc.MemcachedOps
	rep := &ClusterReport{}
	var routed [4]float64 // routed ops/s by backend count
	t := &Table{
		ID:     "Cluster",
		Title:  "Routed YCSB throughput vs backend count, and availability under a mid-run kill",
		Header: []string{"cell", "backends", "ops/s", "note"},
		Notes: []string{
			fmt.Sprintf("workload: %d records, %d ops, 95/5 read/update, Zipfian, %d clients x depth-%d pipelines through sdrad-router", sc.MemcachedRecords, ops, clients, depth),
			fmt.Sprintf("scaling_3v1 is reported, not judged: three backends need three cores to run in parallel (this machine: %d cpus)", runtime.NumCPU()),
			fmt.Sprintf("kill cell: one of three backends dies at the midpoint; claim: availability >= %.2f", clusterAvailabilityFloor),
		},
	}
	for n := 1; n <= 3; n++ {
		runtime.GC()
		f, err := startClusterFleet(n, sc.MemcachedRecords, cluster.HealthConfig{})
		if err != nil {
			return nil, nil, err
		}
		tput, err := driveRouted(f.addr(), sc, ops, clients, depth, nil)
		f.stop()
		if err != nil {
			return nil, nil, fmt.Errorf("cluster n%d: %w", n, err)
		}
		routed[n] = tput
		t.AddRow(fmt.Sprintf("routed_n%d", n), fmt.Sprintf("%d", n), fmtTput(tput), "")
	}
	rep.Scaling3v1 = routed[3] / routed[1]

	// Availability under a mid-run kill: three backends, one dies at the
	// midpoint. Degraded replies are bounded by the failure threshold
	// (times the batch depth) plus probation flaps; everything else must
	// keep serving via ring spill.
	runtime.GC()
	f, err := startClusterFleet(3, sc.MemcachedRecords, cluster.HealthConfig{})
	if err != nil {
		return nil, nil, err
	}
	var killOnce sync.Once
	var degraded atomic.Int64
	tput, err := driveRouted(f.addr(), sc, ops, clients, depth, func(n int, deg bool) {
		if n == ops/2 {
			killOnce.Do(func() { f.killBackend(1) })
		}
		if deg {
			degraded.Add(1)
		}
	})
	f.stop()
	if err != nil {
		return nil, nil, fmt.Errorf("cluster kill: %w", err)
	}
	rep.DegradedKill = int(degraded.Load())
	rep.AvailabilityKill = 1 - float64(rep.DegradedKill)/float64(ops)
	t.AddRow("scaling_3v1", "3/1", fmt.Sprintf("%.2fx", rep.Scaling3v1), "ratio of routed ops/s")
	t.AddRow("kill_3", "3-1", fmtTput(tput),
		fmt.Sprintf("availability %.4f (%d degraded)", rep.AvailabilityKill, rep.DegradedKill))
	return rep, t, nil
}

// Check fails when the run's own kill cell answered fewer requests
// non-degraded than the availability floor.
func (r *ClusterReport) Check() error {
	if r.AvailabilityKill < clusterAvailabilityFloor {
		return fmt.Errorf("%w: availability under kill %.4f below floor %.2f (%d degraded replies)",
			errClaim, r.AvailabilityKill, clusterAvailabilityFloor, r.DegradedKill)
	}
	return nil
}
