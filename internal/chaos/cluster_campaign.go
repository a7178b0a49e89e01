package chaos

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"sdrad/internal/cluster"
	"sdrad/internal/memcache"
)

// clusterBackend is one in-process hardened memcached behind a loopback
// listener, as the router sees a fleet member, with the workload harness
// auditing it directly.
type clusterBackend struct {
	*server
	srv *memcache.Server
	ln  net.Listener
}

func (b *clusterBackend) stop() {
	b.srv.Stop()
	_ = b.ln.Close()
}

// runCluster drives the consistent-hash router over three hardened
// backends through the fleet-level rewind-and-discard ladder: a bset
// attack through the router is absorbed by the backend it routes to; a
// backend killed mid-run is demoted after exactly failThreshold degraded
// replies and its keys spill to ring successors; a backend whose
// telemetry reports a quarantined policy ladder is routed around without
// a single failed exchange; and both recoveries go through probation —
// the dead backend flaps and re-demotes with a doubled hold-off, the
// healed one readmits and returns to full health. Throughout, the
// client connection to the router must never break, and Stop must
// complete — no stuck connections.
func runCluster(cfg Config, r *Report) error {
	const (
		nBackends     = 3
		failThreshold = 2
		holdOff       = time.Second
		probationOKs  = 2
	)
	var backends []*clusterBackend
	var cfgBackends []cluster.Backend
	for i := 0; i < nBackends; i++ {
		name := fmt.Sprintf("b%d", i)
		w, srv, err := newMemcache(cfg, r, memcache.Config{Seed: cfg.Seed + int64(i)})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Stop()
			return err
		}
		go func() { _ = srv.ServeListener(ln) }()
		b := &clusterBackend{server: w, srv: srv, ln: ln}
		defer b.stop()
		backends = append(backends, b)
		cfgBackends = append(cfgBackends, cluster.Backend{
			Name: name, Addr: ln.Addr().String(),
			MetricsURL: "stub://" + name,
		})
	}

	// Determinism: a manual clock drives the hold-off ladder, polls are
	// manual (PollInterval 0), and the telemetry fetch is a stub playing
	// each backend's policy state. Atomics, because the router reads the
	// clock from its serving goroutine.
	var clock atomic.Int64
	clock.Store(1)
	var quarantined [nBackends]atomic.Bool
	fetch := func(url string) ([]byte, error) {
		for i := 0; i < nBackends; i++ {
			if url == "stub://"+fmt.Sprintf("b%d", i) {
				if quarantined[i].Load() {
					return []byte(`{"sdrad_policy_state": {"4": 2}}`), nil
				}
				return []byte(`{"sdrad_policy_state": {"4": 0}}`), nil
			}
		}
		return nil, fmt.Errorf("unknown stub %q", url)
	}
	rt, err := cluster.NewRouter(cluster.Config{
		Backends: cfgBackends,
		Fetch:    fetch,
		Health: cluster.HealthConfig{
			FailThreshold: failThreshold,
			HoldOff:       holdOff,
			ProbationOKs:  probationOKs,
			Clock:         clock.Load,
		},
		Telemetry: cfg.Telemetry,
	})
	if err != nil {
		return err
	}
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rt.Stop()
		return err
	}
	go func() { _ = rt.Serve(rln) }()

	c, err := cluster.Dial(rln.Addr().String(), 2*time.Second, 5*time.Second)
	if err != nil {
		rt.Stop()
		return err
	}
	defer func() { _ = c.Close() }()

	// do round-trips one request. The router's degraded answer is a
	// SERVER_ERROR line that keeps the connection open; any transport
	// error here means the client connection broke — the campaign's
	// hardest failure.
	do := func(label string, req []byte) []byte {
		rep, err := c.Do(req)
		if err != nil {
			r.failf("%s: client connection to the router broke: %v", label, err)
			return nil
		}
		return rep
	}
	// keyOwned returns the i-th key whose ring primary is backend b.
	keyOwned := func(b, i int) string {
		found := 0
		for j := 0; ; j++ {
			k := fmt.Sprintf("c%d", j)
			if rt.Ring().Primary(k) == b {
				if found == i {
					return k
				}
				found++
			}
		}
	}
	state := func(b int) cluster.HealthState { return rt.Health().State(b) }

	// --- Phase 1: steady traffic spanning every backend. ---
	rng := rand.New(rand.NewSource(cfg.Seed))
	shadow := map[string][]byte{}
	keys := make([]string, 12)
	for i := range keys {
		keys[i] = fmt.Sprintf("c%d", i)
	}
	for i := 0; i < cfg.Ops; i++ {
		key := keys[rng.Intn(len(keys))]
		label := fmt.Sprintf("op=%02d steady", i)
		switch rng.Intn(3) {
		case 0:
			val := []byte(fmt.Sprintf("v%d", i))
			rep := do(label, memcache.FormatSet(key, val, 0))
			if !bytes.HasPrefix(rep, []byte("STORED")) {
				r.failf("%s: set %s: %q", label, key, rep)
			} else {
				shadow[key] = val
			}
			r.event("%s set %s@%s %s", label, key, rt.Ring().Name(rt.Ring().Primary(key)), respClass(rep, false))
		case 1:
			rep := do(label, memcache.FormatGet(key))
			val, _, ok := memcache.ParseGetValue(rep)
			want, have := shadow[key]
			if ok != have || (ok && !bytes.Equal(val, want)) {
				r.failf("%s: get %s hit=%v, shadow says %v", label, key, ok, have)
			}
			r.event("%s get %s@%s hit=%v", label, key, rt.Ring().Name(rt.Ring().Primary(key)), ok)
		case 2:
			rep := do(label, memcache.FormatDelete(key))
			delete(shadow, key)
			r.event("%s delete %s@%s %s", label, key, rt.Ring().Name(rt.Ring().Primary(key)), respClass(rep, false))
		}
	}
	for b := 0; b < nBackends; b++ {
		if state(b) != cluster.HealthUp {
			r.failf("steady phase left backend b%d in state %v", b, state(b))
		}
	}

	// --- Phase 2: bset overflow attacks THROUGH the router. The routed
	// backend absorbs the rewind; the router answers the attacker with a
	// degraded reply and the very next request to that backend succeeds,
	// so one attack never demotes a healthy backend. ---
	for b := 0; b < nBackends; b++ {
		label := fmt.Sprintf("attack b%d", b)
		atkKey, be := keyOwned(b, 0), backends[b]
		pre := be.before()
		rep := do(label, memcache.FormatBSet(atkKey, 1<<20, nil))
		if !bytes.HasPrefix(rep, []byte("SERVER_ERROR")) {
			r.failf("%s: attack reply %q, want a degraded SERVER_ERROR", label, rep)
		}
		be.trapped(label, pre, false)
		// Recovery probe: the backend serves again immediately, and the
		// success resets its failure streak.
		probe := do(label, memcache.FormatSet(atkKey, []byte("post-attack"), 0))
		if !bytes.HasPrefix(probe, []byte("STORED")) {
			r.failf("%s: backend did not serve after absorbing the attack: %q", label, probe)
		}
		if state(b) != cluster.HealthUp {
			r.failf("%s: one absorbed attack demoted the backend (state %v)", label, state(b))
		}
		be.audit(label)
		r.event("%s key=%s rewinds=%d probe=%s state=%v", label, atkKey,
			be.lib.Stats().Rewinds.Load()-pre.rewinds, respClass(probe, false), state(b))
	}

	// --- Phase 3: kill backend b1 mid-run. Exactly failThreshold
	// degraded replies, then demotion; its keys spill to ring successors
	// and the survivors never miss a beat. ---
	victim := 1
	victimKey, survivorKey := keyOwned(victim, 0), keyOwned(0, 0)
	if rep := do("pre-kill", memcache.FormatSet(survivorKey, []byte("steadfast"), 0)); !bytes.HasPrefix(rep, []byte("STORED")) {
		r.failf("pre-kill: survivor set failed: %q", rep)
	}
	backends[victim].stop()
	r.event("kill b%d", victim)
	// A stopped backend answers nothing — its pooled connection reads EOF
	// and a re-dial is refused — so every degraded reply is one strike and
	// exactly failThreshold of them demote it.
	degraded := 0
	for i := 0; i < failThreshold+4; i++ {
		rep := do("post-kill", memcache.FormatSet(victimKey, []byte("spilled"), 0))
		if bytes.HasPrefix(rep, []byte("SERVER_ERROR")) {
			degraded++
			continue
		}
		if !bytes.HasPrefix(rep, []byte("STORED")) {
			r.failf("post-kill op %d: %q", i, rep)
		}
	}
	if degraded != failThreshold {
		r.failf("post-kill: %d degraded replies, want exactly the failure threshold %d", degraded, failThreshold)
	}
	if state(victim) != cluster.HealthDemoted {
		r.failf("post-kill: dead backend state %v, want demoted", state(victim))
	}
	rep := do("post-kill", memcache.FormatGet(victimKey))
	if val, _, ok := memcache.ParseGetValue(rep); !ok || !bytes.Equal(val, []byte("spilled")) {
		r.failf("post-kill: spilled key not served by successor: %q", rep)
	}
	rep = do("post-kill", memcache.FormatGet(survivorKey))
	if val, _, ok := memcache.ParseGetValue(rep); !ok || !bytes.Equal(val, []byte("steadfast")) {
		r.failf("post-kill: survivor key damaged: %q", rep)
	}
	r.event("post-kill degraded=%d state=%v spill=ok", degraded, state(victim))

	// --- Phase 4: quarantine backend b2 via its telemetry. The poll
	// demotes it before a single exchange fails: keys spill with zero
	// degraded replies. ---
	quarantine := 2
	quarantined[quarantine].Store(true)
	rt.PollOnce()
	if state(quarantine) != cluster.HealthDemoted {
		r.failf("quarantine: poll did not demote b%d (state %v)", quarantine, state(quarantine))
	}
	qKey := keyOwned(quarantine, 0)
	rep = do("quarantine", memcache.FormatSet(qKey, []byte("routed-around"), 0))
	if !bytes.HasPrefix(rep, []byte("STORED")) {
		r.failf("quarantine: spill not clean: %q", rep)
	}
	r.event("quarantine b%d state=%v spill=%s", quarantine, state(quarantine), respClass(rep, false))

	// --- Phase 5: hold-offs expire. The dead backend flaps — probation
	// readmit, one failed exchange, re-demotion with a doubled hold-off.
	// The healed backend readmits and earns its way back to Up. ---
	quarantined[quarantine].Store(false)
	clock.Add(int64(holdOff) + int64(100*time.Millisecond))
	rt.PollOnce() // healthy telemetry must not readmit by itself
	if state(quarantine) != cluster.HealthDemoted {
		r.failf("readmit: optimistic poll readmitted b%d early", quarantine)
	}
	rep = do("flap", memcache.FormatSet(victimKey, []byte("flap-probe"), 0))
	if !bytes.HasPrefix(rep, []byte("SERVER_ERROR")) {
		r.failf("flap: dead backend's probation exchange replied %q, want degraded", rep)
	}
	if state(victim) != cluster.HealthDemoted {
		r.failf("flap: dead backend state %v after probation strike, want re-demoted", state(victim))
	}
	rep = do("flap", memcache.FormatSet(victimKey, []byte("re-spilled"), 0))
	if !bytes.HasPrefix(rep, []byte("STORED")) {
		r.failf("flap: spill after re-demotion failed: %q", rep)
	}
	r.event("flap b%d re-demoted spill=%s", victim, respClass(rep, false))

	for i := 0; i < probationOKs; i++ {
		rep = do("readmit", memcache.FormatSet(qKey, []byte("welcome-back"), 0))
		if !bytes.HasPrefix(rep, []byte("STORED")) {
			r.failf("readmit op %d: %q", i, rep)
		}
	}
	if state(quarantine) != cluster.HealthUp {
		r.failf("readmit: b%d state %v after %d probation successes, want up", quarantine, state(quarantine), probationOKs)
	}
	r.event("readmit b%d state=%v", quarantine, state(quarantine))
	// And the key is back on its primary: read it from the backend
	// directly, bypassing the router.
	cb, err := cluster.Dial(backends[quarantine].ln.Addr().String(), 2*time.Second, 5*time.Second)
	if err != nil {
		r.failf("readmit: direct dial to b%d: %v", quarantine, err)
	} else {
		rep, err := cb.Do(memcache.FormatGet(qKey))
		if val, _, ok := memcache.ParseGetValue(rep); err != nil || !ok || !bytes.Equal(val, []byte("welcome-back")) {
			r.failf("readmit: primary b%d does not hold the post-readmit write: %q err=%v", quarantine, rep, err)
		}
		_ = cb.Close()
	}

	// --- Phase 6: shutdown. Stop must complete — a router with a stuck
	// client or backend connection hangs here, bounded by the watchdog. ---
	// The doubled hold-off for the flapped backend has not expired, so the
	// final ladder doubles as a determinism witness.
	r.event("final states b0=%v b1=%v b2=%v", state(0), state(1), state(2))
	stopped := make(chan struct{})
	go func() { rt.Stop(); close(stopped) }()
	select {
	case <-stopped:
		r.event("stop clean")
	case <-time.After(10 * time.Second):
		r.failf("router Stop did not complete: stuck connections")
	}
	for i, b := range backends {
		if i == victim {
			continue
		}
		if crashed, cause := b.srv.Crashed(); crashed {
			r.failf("backend b%d crashed during the campaign: %v", i, cause)
		}
		b.audit(fmt.Sprintf("final b%d", i))
	}
	return nil
}
