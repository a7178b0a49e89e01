package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"sdrad/internal/httpd"
	"sdrad/internal/memcache"
	"sdrad/internal/telemetry"
	"sdrad/internal/ycsb"
)

const (
	// sliceLen is how long one arm is driven before the other takes its
	// turn. On the shared two-CPU boxes this runs on, machine speed moves by
	// about 10% between neighbouring windows of any length from 20 ms to
	// seconds, so averaging longer buys nothing and a steady median needs
	// many pairs: the arms trade places every 25 ms, 400 pairs in 20 s.
	sliceLen = 25 * time.Millisecond
	// traceShare is the share of a run's rounds a traced run measures.
	traceShare = 0.3
	// epochs is how many times a run rebuilds its servers. A server's memory
	// layout moves its throughput by a few percent for as long as it lives,
	// so a run spreads its rounds over several builds of each arm; the
	// hardened arm's build-and-load times are the setup_s samples.
	epochs = 5
	// attackEvery is the attacker's pacing on an attacked slice.
	attackEvery = 10 * time.Millisecond
	// attackClaim is the body length the trap's header claims, past any
	// staging buffer: the CVE-2011-4971 analog.
	attackClaim = 16 << 20
	// latCap bounds one client's latency samples per slice; a slice this
	// short sees a few thousand calls per client.
	latCap = 1 << 17
)

// An arm is one side of a paired measurement. The arms of a workload
// alternate slice by slice, so machine drift lands on both.
type arm struct {
	armSpec
	srv server
	// sess holds one keep-alive connection per client. Two arms on one
	// server share the slice.
	sess []session
}

func newArm(spec armSpec, srv server) *arm {
	a := &arm{armSpec: spec, srv: srv, sess: make([]session, clients)}
	for c := range a.sess {
		a.sess[c] = srv.dial(c)
	}
	return a
}

// sliceStats is one timed slice of one arm; the per-round raw values every
// median is taken over.
type sliceStats struct {
	Arm     string `json:"arm"`
	Ops     int64  `json:"ops"`
	Refused int64  `json:"refused"`
	// Calls is the latency sample count: one sample per successful Do or
	// DoPipeline burst.
	Calls      int     `json:"calls"`
	WallS      float64 `json:"wall_s"`
	CPUS       float64 `json:"cpu_s"`
	TputOpsS   float64 `json:"tput_ops_s"`
	CPUUsPerOp float64 `json:"cpu_us_per_op"`
	LatP50Us   float64 `json:"lat_p50_us"`
	LatP99Us   float64 `json:"lat_p99_us"`
	Traps      int64   `json:"traps,omitempty"`

	delta counters
}

// A round is the two slices measured back to back.
type round struct {
	Ref  sliceStats `json:"ref"`
	Hard sliceStats `json:"hard"`
}

type client struct {
	id      int
	burst   [][]byte
	lat     []uint32 // ns per successful call
	ops     int64
	refused int64
	kept    []span
	err     error
}

// engine measures one workload.
type engine struct {
	w      *workload
	st     *stream
	rounds int // paired rounds of an untraced run
	cl     []*client
	trap   []byte
	tracer *tracer  // nil on an untraced run
	lat    []uint32 // the slice's merged latency samples, reused

	// Attack-only tail metrics: call latencies pooled over the current
	// epoch's attacked slices, each finished epoch's 99.9th percentile, and
	// the run's trap-submit-to-closed-reply times.
	attackedLat []uint32
	epochP999Us []float64
	rewindUs    []float64
}

func newEngine(w *workload, seed int64, seconds float64, tr *tracer) (*engine, error) {
	st, err := newStream(w, seed)
	if err != nil {
		return nil, err
	}
	e := &engine{
		w:      w,
		st:     st,
		rounds: max(2, int(seconds*float64(time.Second)/float64(2*sliceLen)+0.5)),
		trap:   memcache.FormatBSet("atk", attackClaim, []byte("x")),
		tracer: tr,
	}
	for c := 0; c < clients; c++ {
		e.cl = append(e.cl, &client{id: c, burst: make([][]byte, w.depth), lat: make([]uint32, 0, latCap)})
	}
	return e, nil
}

// buildServer constructs and loads one server of the workload's family.
func buildServer(w *workload, st *stream, hardened bool, rec *telemetry.Recorder) (server, error) {
	var srv server
	var err error
	switch {
	case w.httpd && hardened:
		srv, err = newHTTPD(httpd.VariantSDRaD, rec)
	case w.httpd:
		srv, err = newHTTPD(httpd.VariantVanilla, rec)
	case hardened:
		srv, err = newMemcache(w, memcache.VariantSDRaD, rec)
	default:
		srv, err = newMemcache(w, memcache.VariantVanilla, rec)
	}
	if err != nil {
		return nil, err
	}
	if err := srv.load(st); err != nil {
		srv.stop()
		return nil, err
	}
	return srv, nil
}

// armSpec says how to build one arm of a paired measurement.
type armSpec struct {
	name     string
	hardened bool
	traced   bool // attach a telemetry.Recorder and keep request spans
	attack   bool // run the attacker during the arm's slices
	// shared makes the arm another load pattern on the other arm's server.
	shared bool
}

// epochResult is what outlives an epoch's servers.
type epochResult struct {
	rounds []round
	setupS []float64 // hardened arm: construction plus load, per epoch
	mapped int64     // hardened arm's mapped bytes after its last round
	last   counters  // hardened arm's counters after its last round
}

// runEpochs measures n paired rounds spread over up to `epochs` builds of
// the two arms. Within an epoch the arms alternate which goes first, so slow
// drift cancels in each pair and what is left cancels between pairs. Every
// server is audited before it is stopped.
func (e *engine) runEpochs(refSpec, hardSpec armSpec, n int) (*epochResult, error) {
	out := &epochResult{}
	builds := max(1, min(epochs, n/2))
	for ep := 0; ep < builds; ep++ {
		lo, hi := ep*n/builds, (ep+1)*n/builds
		err := func() error {
			var rec *telemetry.Recorder
			if hardSpec.traced {
				rec = telemetry.New(telemetry.Options{})
			}
			runtime.GC()
			t0 := time.Now()
			hardSrv, err := buildServer(e.w, e.st, hardSpec.hardened, rec)
			if err != nil {
				return err
			}
			defer hardSrv.stop()
			out.setupS = append(out.setupS, time.Since(t0).Seconds())
			hard := newArm(hardSpec, hardSrv)
			ref := &arm{armSpec: refSpec, srv: hardSrv, sess: hard.sess}
			if !refSpec.shared {
				refSrv, err := buildServer(e.w, e.st, refSpec.hardened, nil)
				if err != nil {
					return err
				}
				defer refSrv.stop()
				ref = newArm(refSpec, refSrv)
			}
			for r := lo; r < hi; r++ {
				// Collect every second round: two rounds allocate a fraction of
				// the collector's headroom, so no cycle starts inside a slice.
				// (A collection takes ~9 ms here; one per slice would be a
				// quarter of the run.) The arms go ref hard, hard ref between
				// two collections and hard ref, ref hard between the next two,
				// so each arm is as often first after a collection as last
				// before one, and as often first in a round as second.
				if r%2 == 0 {
					runtime.GC()
				}
				order := []*arm{ref, hard}
				if (r%2 == 1) != (r/2%2 == 1) {
					order = []*arm{hard, ref}
				}
				var rd round
				for _, a := range order {
					s, err := e.runSlice(a, r)
					if err != nil {
						return fmt.Errorf("round %d, %s arm: %w", r, a.name, err)
					}
					if a == hard {
						rd.Hard = s
					} else {
						rd.Ref = s
					}
				}
				out.rounds = append(out.rounds, rd)
			}
			for _, a := range []*arm{ref, hard} {
				if err := a.srv.audit(e.st); err != nil {
					return fmt.Errorf("%s arm: %w", a.name, err)
				}
			}
			out.mapped, out.last = hardSrv.mappedBytes(), hardSrv.snapshot()
			if len(e.attackedLat) > 0 {
				slices.Sort(e.attackedLat)
				e.epochP999Us = append(e.epochP999Us, float64(percentile(e.attackedLat, 0.999))/1e3)
				e.attackedLat = e.attackedLat[:0]
			}
			return nil
		}()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runSlice drives one arm with every client for one slice. Both slices of
// a round start from the same place in each client's sequence.
func (e *engine) runSlice(a *arm, r int) (sliceStats, error) {
	before := a.srv.snapshot()
	sp := e.tracer.begin("slice."+a.name, e.tracer.root())
	pos := r * (streamLen / e.rounds) % streamLen
	if e.w.httpd {
		pos = 0
	}

	var wg sync.WaitGroup
	cpu0 := ycsb.ProcessCPUSeconds()
	start := time.Now()
	deadline := start.Add(sliceLen)
	for _, cl := range e.cl {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.drive(a, cl, pos, deadline, sp)
		}()
	}
	var atk attackStats
	stopAttack, attackDone := make(chan struct{}), make(chan struct{})
	if a.attack {
		go func() {
			defer close(attackDone)
			atk = e.attack(a.srv.(*mcServer), stopAttack)
		}()
	} else {
		close(attackDone)
	}
	wg.Wait()
	close(stopAttack)
	<-attackDone
	wall := time.Since(start).Seconds()
	cpu := ycsb.ProcessCPUSeconds() - cpu0
	e.tracer.end(sp)

	s := sliceStats{Arm: a.name, WallS: wall, CPUS: cpu, Traps: atk.traps}
	lat := e.lat[:0]
	for _, cl := range e.cl {
		if cl.err != nil {
			return s, cl.err
		}
		s.Ops += cl.ops
		s.Refused += cl.refused
		lat = append(lat, cl.lat...)
		e.tracer.keep(cl.kept, int64(len(cl.lat)))
	}
	if atk.err != nil {
		return s, atk.err
	}
	s.delta = a.srv.snapshot().sub(before)
	if rewinds := s.delta["server.rewinds"]; rewinds != atk.traps {
		return s, violation("%d rewinds for %d traps sent", rewinds, atk.traps)
	}
	if s.Ops == 0 {
		return s, violation("no operation completed in a %v slice", sliceLen)
	}
	e.lat = lat
	slices.Sort(lat)
	s.Calls = len(lat)
	s.TputOpsS = float64(s.Ops) / wall
	s.CPUUsPerOp = cpu * 1e6 / float64(s.Ops)
	s.LatP50Us = float64(percentile(lat, 0.50)) / 1e3
	s.LatP99Us = float64(percentile(lat, 0.99)) / 1e3
	if a.attack && e.tracer == nil {
		// A slice holds a handful of traps and too few calls for a 99.9th
		// percentile: the attack-only tail metrics pool their samples.
		e.attackedLat = append(e.attackedLat, lat...)
		e.rewindUs = append(e.rewindUs, atk.latUs...)
	}
	return s, nil
}

// drive is one client's closed loop: the next burst goes out only when the
// previous one has been answered and checked. A call's latency runs from
// the end of the previous call, so it covers drawing the burst from the
// stream and checking the replies as well as the server.
func (e *engine) drive(a *arm, cl *client, pos int, deadline time.Time, parent uint64) {
	sess := a.sess[cl.id]
	cl.lat, cl.kept = cl.lat[:0], cl.kept[:0]
	cl.ops, cl.refused, cl.err = 0, 0, nil
	t0 := time.Now()
	for {
		next := e.st.fill(cl.burst, cl.id, pos)
		closed, err := sess.call(cl.burst)
		t1 := time.Now()
		switch {
		case err != nil:
			cl.err = err
			return
		case closed && !a.attack:
			cl.err = violation("connection closed on a calm slice")
			return
		case closed:
			// Collateral of a rewind: the batch this burst shared with a trap
			// was discarded. Reconnect and resend, as a client library does.
			cl.refused += int64(len(cl.burst))
			sess = a.srv.dial(cl.id)
			a.sess[cl.id] = sess
			t0 = t1
			continue
		}
		pos = next
		cl.ops += int64(len(cl.burst))
		if len(cl.lat) < cap(cl.lat) {
			if a.traced && len(cl.lat)%keepEvery == 0 {
				cl.kept = append(cl.kept, e.tracer.request(parent, cl.id, len(cl.lat), t0, t1))
			}
			cl.lat = append(cl.lat, uint32(min(t1.Sub(t0), math.MaxUint32)))
		}
		if !t1.Before(deadline) {
			return
		}
		t0 = t1
	}
}

type attackStats struct {
	traps int64
	latUs []float64 // trap submit to connection-closed reply
	err   error
}

// attack is the attacker: one trap on a fresh connection per tick until
// stop. Every trap must come back as a closed connection.
func (e *engine) attack(m *mcServer, stop <-chan struct{}) (st attackStats) {
	tick := time.NewTicker(attackEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return st
		case <-tick.C:
		}
		t0 := time.Now()
		closed, err := m.trap(e.trap)
		if err != nil || !closed {
			st.err = violation("trap connection came back closed=%v err=%v", closed, err)
			return st
		}
		st.latUs = append(st.latUs, float64(time.Since(t0).Nanoseconds())/1e3)
		st.traps++
	}
}

// result is one workload's outcome: what the result line, the printed
// lines and the JSON document are made from.
type result struct {
	Workload string `json:"workload"`
	// Attempted counts every operation a client issued, resends included.
	// Failed stays 0: a burst refused by a connection close is resent until
	// it is answered, and a failure a resend cannot cure is a correctness
	// violation that ends the run without a result.
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// LatSamples is the smallest per-slice latency sample count behind the
	// percentiles.
	LatSamples int       `json:"lat_samples"`
	SetupS     []float64 `json:"setup_s_samples,omitempty"`
	Rounds     []round   `json:"rounds"`

	refused int64    // operations answered by a connection close
	deltas  counters // hardened arm's counter movement, summed over rounds
}

// measure runs the workload untraced and returns its end-to-end metrics.
func (e *engine) measure() (*result, error) {
	ref, hard := armSpec{name: "vanilla"}, armSpec{name: "sdrad", hardened: true}
	if e.w.attack {
		ref = armSpec{name: "calm", hardened: true, shared: true}
		hard = armSpec{name: "attacked", hardened: true, attack: true}
	}
	ep, err := e.runEpochs(ref, hard, e.rounds)
	if err != nil {
		return nil, err
	}
	rs := ep.rounds
	res := e.summarize(rs)
	res.SetupS = ep.setupS
	m := res.Metrics
	hardOf := func(value func(sliceStats) float64) float64 {
		return medianOf(rs, func(r round) float64 { return value(r.Hard) })
	}
	m["tput_ops_s"] = hardOf(func(s sliceStats) float64 { return s.TputOpsS })
	m["hardening_ratio"] = medianOf(rs, pairedRatio)
	m["cpu_us_per_op"] = hardOf(func(s sliceStats) float64 { return s.CPUUsPerOp })
	m["lat_p50_us"] = hardOf(func(s sliceStats) float64 { return s.LatP50Us })
	m["lat_p99_us"] = hardOf(func(s sliceStats) float64 { return s.LatP99Us })
	if e.w.attack {
		m["attack_goodput_ratio"] = m["hardening_ratio"]
		slices.Sort(e.rewindUs)
		m["lat_p999_us"] = median(e.epochP999Us)
		m["rewind_p50_us"] = percentile(e.rewindUs, 0.50)
	}
	m["fail_frac"] = float64(res.refused) / float64(res.Attempted)
	m["mapped_mib"] = float64(ep.mapped) / (1 << 20)
	m["setup_s"] = median(ep.setupS)
	return res, nil
}

// pairedRatio is the hardened slice's throughput over the reference
// slice's of the same round.
func pairedRatio(r round) float64 { return r.Hard.TputOpsS / r.Ref.TputOpsS }

func (e *engine) summarize(rs []round) *result {
	res := &result{Workload: e.w.Name, Metrics: map[string]float64{}, Rounds: rs, LatSamples: math.MaxInt, deltas: counters{}}
	for _, r := range rs {
		for _, s := range []sliceStats{r.Ref, r.Hard} {
			res.Attempted += s.Ops + s.Refused
			res.refused += s.Refused
			res.LatSamples = min(res.LatSamples, s.Calls)
		}
		res.deltas.add(r.Hard.delta)
	}
	return res
}
