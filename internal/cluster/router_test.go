package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"sdrad/internal/memcache"
	"sdrad/internal/policy"
	"sdrad/internal/proc"
	"sdrad/internal/telemetry"
)

// testBackend is one in-process hardened memcached behind a loopback
// listener.
type testBackend struct {
	name string
	srv  *memcache.Server
	ln   net.Listener
	rec  *telemetry.Recorder // nil unless started recorded
}

func (b *testBackend) stop() {
	b.srv.Stop()
	_ = b.ln.Close()
}

// startBackends starts n one-worker hardened memcached backends named b0,
// b1, ..., each with a telemetry recorder of its own when recorded is
// set, and returns them with the router's entries for them. Each stops
// when the test ends.
func startBackends(t *testing.T, n int, recorded bool) ([]*testBackend, []Backend) {
	t.Helper()
	var backends []*testBackend
	var cfgBackends []Backend
	for i := 0; i < n; i++ {
		b := &testBackend{name: fmt.Sprintf("b%d", i)}
		if recorded {
			b.rec = telemetry.New(telemetry.Options{})
		}
		srv, err := memcache.NewServer(memcache.Config{
			Variant:    memcache.VariantSDRaD,
			Workers:    1,
			HashPower:  10,
			CacheBytes: 4 << 20,
			Telemetry:  b.rec,
		})
		if err != nil {
			t.Fatalf("backend %s: %v", b.name, err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Stop()
			t.Fatalf("backend %s: %v", b.name, err)
		}
		go func() { _ = srv.ServeListener(ln) }()
		b.srv, b.ln = srv, ln
		t.Cleanup(b.stop)
		backends = append(backends, b)
		cfgBackends = append(cfgBackends, Backend{Name: b.name, Addr: ln.Addr().String()})
	}
	return backends, cfgBackends
}

// audit runs the library audit and the shard audit on b's serving
// thread, between requests.
func (b *testBackend) audit(t *testing.T) {
	t.Helper()
	lib := b.srv.Library()
	if lib == nil {
		t.Errorf("backend %s: no SDRaD library to audit", b.name)
		return
	}
	err := b.srv.NewConn().Inspect(func(th *proc.Thread) error {
		if f := lib.Audit(th).Findings; len(f) > 0 {
			return fmt.Errorf("audit: %v", f)
		}
		return b.srv.Storage().AuditShards(th.CPU())
	})
	if err != nil {
		t.Errorf("backend %s: %v", b.name, err)
	}
}

// keyOn returns the first key prefix+"N" whose ring primary is backend b.
func keyOn(rt *Router, prefix string, b int) string {
	for i := 0; ; i++ {
		if k := fmt.Sprintf("%s%d", prefix, i); rt.Ring().Primary(k) == b {
			return k
		}
	}
}

// startRouter serves cfg's router on a loopback listener and returns it
// with its address.
func startRouter(t *testing.T, cfg Config) (*Router, string) {
	t.Helper()
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = rt.Serve(ln) }()
	t.Cleanup(rt.Stop)
	return rt, ln.Addr().String()
}

func mustDial(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr, time.Second, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestRouterRoutesAndReassembles(t *testing.T) {
	_, cfgBackends := startBackends(t, 3, false)
	rt, addr := startRouter(t, Config{Backends: cfgBackends})
	c := mustDial(t, addr)

	// A pipelined batch whose keys span all three backends: sets then
	// gets, replies must come back in request order.
	const n = 60
	var sets [][]byte
	for i := 0; i < n; i++ {
		sets = append(sets, memcache.FormatSet(fmt.Sprintf("key%d", i), []byte(fmt.Sprintf("val%d", i)), 0))
	}
	replies, err := c.DoBatch(sets)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range replies {
		if !bytes.Equal(rep, []byte("STORED\r\n")) {
			t.Fatalf("set %d: %q", i, rep)
		}
	}
	var gets [][]byte
	for i := 0; i < n; i++ {
		gets = append(gets, memcache.FormatGet(fmt.Sprintf("key%d", i)))
	}
	replies, err = c.DoBatch(gets)
	if err != nil {
		t.Fatal(err)
	}
	spread := map[int]int{}
	for i, rep := range replies {
		val, _, ok := memcache.ParseGetValue(rep)
		if !ok || string(val) != fmt.Sprintf("val%d", i) {
			t.Fatalf("get %d: reply out of order or wrong: %q", i, rep)
		}
		spread[rt.Ring().Primary(fmt.Sprintf("key%d", i))]++
	}
	if len(spread) != 3 {
		t.Fatalf("keys did not span all backends: %v", spread)
	}

	// A seeded mix of sets, gets and deletes over twelve keys, one
	// request at a time, each reply checked against a shadow of the
	// store. Nothing in it may strike a backend.
	rng := rand.New(rand.NewSource(12648430))
	shadow := map[string]string{}
	for i := 0; i < 32; i++ {
		key := fmt.Sprintf("c%d", rng.Intn(12))
		val, have := shadow[key]
		switch rng.Intn(3) {
		case 0:
			val = fmt.Sprintf("v%d", i)
			if rep, err := c.Do(memcache.FormatSet(key, []byte(val), 0)); err != nil || !bytes.Equal(rep, []byte("STORED\r\n")) {
				t.Fatalf("op %d: set %s: %q err=%v", i, key, rep, err)
			}
			shadow[key] = val
		case 1:
			rep, err := c.Do(memcache.FormatGet(key))
			if got, _, hit := memcache.ParseGetValue(rep); err != nil || hit != have || string(got) != val {
				t.Fatalf("op %d: get %s: %q err=%v, shadow holds %q (%v)", i, key, rep, err, val, have)
			}
		case 2:
			want := "NOT_FOUND\r\n"
			if have {
				want = "DELETED\r\n"
			}
			if rep, err := c.Do(memcache.FormatDelete(key)); err != nil || string(rep) != want {
				t.Fatalf("op %d: delete %s: %q err=%v, want %q", i, key, rep, err, want)
			}
			delete(shadow, key)
		}
	}
	for b := 0; b < 3; b++ {
		if got := rt.Health().State(b); got != HealthUp {
			t.Fatalf("backend b%d %v after steady traffic, want up", b, got)
		}
	}

	// Protocol odds and ends at the router: version, delete, miss,
	// unroutable garbage, and quit.
	rep, err := c.Do([]byte("version\r\n"))
	if err != nil || !bytes.HasPrefix(rep, []byte("VERSION")) {
		t.Fatalf("version: %q err=%v", rep, err)
	}
	rep, err = c.Do(memcache.FormatDelete("key0"))
	if err != nil || !bytes.Equal(rep, []byte("DELETED\r\n")) {
		t.Fatalf("delete: %q err=%v", rep, err)
	}
	rep, err = c.Do(memcache.FormatGet("key0"))
	if err != nil || !bytes.Equal(rep, []byte("END\r\n")) {
		t.Fatalf("deleted key not a miss: %q err=%v", rep, err)
	}
	rep, err = c.Do([]byte("bogus command\r\n"))
	if err != nil || !bytes.Equal(rep, []byte("ERROR\r\n")) {
		t.Fatalf("garbage: %q err=%v", rep, err)
	}
	if _, err := c.Do([]byte("quit\r\n")); err == nil {
		t.Fatal("quit did not close the client connection")
	}

	// A single burst ending in quit: everything ahead of the quit is
	// still served (real memcached answers, then closes), the request
	// behind it is dropped, and the stream ends cleanly.
	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
	var burst bytes.Buffer
	burst.Write(memcache.FormatSet("qk", []byte("qv"), 0))
	burst.Write(memcache.FormatGet("qk"))
	burst.WriteString("quit\r\n")
	burst.Write(memcache.FormatSet("dropped", []byte("x"), 0))
	if _, err := nc.Write(burst.Bytes()); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	rep, err = memcache.ReadReply(br)
	if err != nil || !bytes.Equal(rep, []byte("STORED\r\n")) {
		t.Fatalf("pre-quit set: %q err=%v", rep, err)
	}
	rep, err = memcache.ReadReply(br)
	if err != nil {
		t.Fatal(err)
	}
	if val, _, ok := memcache.ParseGetValue(rep); !ok || string(val) != "qv" {
		t.Fatalf("pre-quit get: %q", rep)
	}
	if _, err := memcache.ReadReply(br); err != io.EOF {
		t.Fatalf("after quit: %v, want io.EOF", err)
	}
	c2 := mustDial(t, addr)
	rep, err = c2.Do(memcache.FormatGet("dropped"))
	if err != nil || !bytes.Equal(rep, []byte("END\r\n")) {
		t.Fatalf("request behind quit leaked into the store: %q err=%v", rep, err)
	}
}

func TestRouterSpillsAroundDeadBackend(t *testing.T) {
	mc := &policy.ManualClock{}
	backends, cfgBackends := startBackends(t, 3, false)
	rt, addr := startRouter(t, Config{
		Backends: cfgBackends,
		Health: HealthConfig{
			FailThreshold: 2,
			HoldOff:       time.Second,
			Clock:         mc.Now,
		},
	})
	c := mustDial(t, addr)

	victimKey, survivorKey := keyOn(rt, "spill", 1), keyOn(rt, "spill", 0)
	for _, k := range []string{victimKey, survivorKey} {
		if rep, err := c.Do(memcache.FormatSet(k, []byte("v"), 0)); err != nil || !bytes.Equal(rep, []byte("STORED\r\n")) {
			t.Fatalf("set %s: %q err=%v", k, rep, err)
		}
	}

	backends[1].stop()

	// Until the failure streak demotes b1, its keys answer degraded; the
	// survivor's keys never miss a beat. A stopped backend writes nothing
	// (its pooled connection reads EOF, a re-dial is refused), so every
	// degraded reply is one strike: exactly FailThreshold of them.
	degraded := 0
	for i := 0; i < 10; i++ {
		rep, err := c.Do(memcache.FormatSet(victimKey, []byte("after"), 0))
		if err != nil {
			t.Fatalf("client connection broke on backend death: %v", err)
		}
		if bytes.HasPrefix(rep, []byte("SERVER_ERROR")) {
			degraded++
			continue
		}
		if !bytes.Equal(rep, []byte("STORED\r\n")) {
			t.Fatalf("op %d: %q", i, rep)
		}
	}
	if degraded != 2 {
		t.Fatalf("degraded replies %d, want exactly FailThreshold (2)", degraded)
	}
	if rt.Health().State(1) != HealthDemoted {
		t.Fatal("dead backend not demoted")
	}
	// After demotion the victim's keys spill to a successor and serve:
	// the post-demotion sets in the loop above landed there, so the key
	// reads back with the spilled value.
	rep, err := c.Do(memcache.FormatGet(victimKey))
	if val, _, ok := memcache.ParseGetValue(rep); err != nil || !ok || string(val) != "after" {
		t.Fatalf("spilled get: %q err=%v", rep, err)
	}
	if rep, err := c.Do(memcache.FormatSet(victimKey, []byte("spilled"), 0)); err != nil || !bytes.Equal(rep, []byte("STORED\r\n")) {
		t.Fatalf("spilled set: %q err=%v", rep, err)
	}
	rep, err = c.Do(memcache.FormatGet(victimKey))
	if val, _, ok := memcache.ParseGetValue(rep); err != nil || !ok || string(val) != "spilled" {
		t.Fatalf("spilled read-back: %q err=%v", rep, err)
	}
	if rep, err := c.Do(memcache.FormatGet(survivorKey)); err != nil {
		t.Fatalf("survivor key: %v", err)
	} else if val, _, ok := memcache.ParseGetValue(rep); !ok || string(val) != "v" {
		t.Fatalf("survivor key damaged: %q", rep)
	}

	// The hold-off expires: the next exchange readmits the dead backend
	// on probation, its one strike there re-demotes it, and the set after
	// that spills again.
	mc.Advance(1100 * time.Millisecond)
	if rep, err := c.Do(memcache.FormatSet(victimKey, []byte("flap"), 0)); err != nil || !bytes.HasPrefix(rep, []byte("SERVER_ERROR")) {
		t.Fatalf("probation exchange with the dead backend: %q err=%v, want degraded", rep, err)
	}
	if got := rt.Health().State(1); got != HealthDemoted {
		t.Fatalf("dead backend %v after its probation strike, want demoted", got)
	}
	if rep, err := c.Do(memcache.FormatSet(victimKey, []byte("re-spilled"), 0)); err != nil || !bytes.Equal(rep, []byte("STORED\r\n")) {
		t.Fatalf("set after re-demotion: %q err=%v", rep, err)
	}

	// Shutdown with the client still connected: a router with a stuck
	// client or backend connection hangs in Stop. The survivors neither
	// crashed nor hold a finding.
	stopped := make(chan struct{})
	go func() { rt.Stop(); close(stopped) }()
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("router Stop did not complete within 10 s")
	}
	for _, b := range []*testBackend{backends[0], backends[2]} {
		if crashed, cause := b.srv.Crashed(); crashed {
			t.Errorf("backend %s crashed: %v", b.name, cause)
		}
		b.audit(t)
	}
}

// TestRouterAbsorbsAttackInPlace sends a CVE-2011-4971 bset through the
// router to each of three hardened backends. The backend it routes to
// absorbs the trap with one rewind and one forensics report, the router
// answers the attacker degraded, and the next request to that backend is
// served: one absorbed attack demotes no backend.
func TestRouterAbsorbsAttackInPlace(t *testing.T) {
	backends, cfgBackends := startBackends(t, 3, true)
	rt, addr := startRouter(t, Config{Backends: cfgBackends, Health: HealthConfig{FailThreshold: 2}})
	c := mustDial(t, addr)
	for i, b := range backends {
		key := keyOn(rt, "atk", i)
		as := b.srv.Process().AddressSpace()
		seq, rewinds, reports := as.FaultSeq(), b.srv.Rewinds(), b.rec.Forensics().Added()
		if rep, err := c.Do(memcache.FormatBSet(key, 1<<20, nil)); err != nil || !bytes.HasPrefix(rep, []byte("SERVER_ERROR")) {
			t.Fatalf("%s: attack reply %q err=%v, want a degraded SERVER_ERROR", b.name, rep, err)
		}
		if rep, err := c.Do(memcache.FormatSet(key, []byte("post-attack"), 0)); err != nil || !bytes.Equal(rep, []byte("STORED\r\n")) {
			t.Fatalf("%s: set after the attack: %q err=%v", b.name, rep, err)
		}
		if got := rt.Health().State(i); got != HealthUp {
			t.Errorf("%s: %v after one absorbed attack, want up", b.name, got)
		}
		if n := b.srv.Rewinds() - rewinds; n != 1 {
			t.Errorf("%s: %d rewinds absorbed, want 1", b.name, n)
		}
		if n := b.rec.Forensics().Added() - reports; n != 1 {
			t.Errorf("%s: %d forensics reports, want 1", b.name, n)
		}
		// The report describes the attack's own fault: the one entry the
		// fault log gained, a genuine violation, not an injected one.
		faults := as.RecentFaults()
		if as.FaultSeq() != seq+1 || len(faults) == 0 {
			t.Errorf("%s: fault log advanced by %d entries, want 1", b.name, as.FaultSeq()-seq)
		} else if f, rep := faults[len(faults)-1], lastReport(b.rec); f.Injected ||
			rep.SiCode != int(f.Code) || rep.Addr != uint64(f.Addr) || rep.Injected {
			t.Errorf("%s: forensics %s at 0x%x injected=%v, fault log %v at 0x%x injected=%v",
				b.name, rep.SiCodeName, rep.Addr, rep.Injected, f.Code, uint64(f.Addr), f.Injected)
		}
		b.audit(t)
	}
}

// TestRouterClosesOnOverlongLine: a client that sends MaxLineLen bytes
// with no newline gets no reply and a closed connection; the router
// keeps routing for the next client.
func TestRouterClosesOnOverlongLine(t *testing.T) {
	_, cfgBackends := startBackends(t, 1, false)
	_, addr := startRouter(t, Config{Backends: cfgBackends})
	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Write(bytes.Repeat([]byte("x"), memcache.MaxLineLen)); err != nil {
		t.Fatal(err)
	}
	if rest, err := io.ReadAll(nc); err != nil || len(rest) != 0 {
		t.Fatalf("after an overlong line: %q, %v; want a clean close and no reply", rest, err)
	}
	if rep, err := mustDial(t, addr).Do(memcache.FormatGet("k")); err != nil || string(rep) != "END\r\n" {
		t.Fatalf("next client: %q, %v", rep, err)
	}
}

// lastReport is rec's newest forensics report (the zero report when
// there is none).
func lastReport(rec *telemetry.Recorder) telemetry.RewindReport {
	rep, _ := rec.Forensics().Last()
	return rep
}

func TestRouterQuarantineReadmit(t *testing.T) {
	mc := &policy.ManualClock{}
	backends, cfgBackends := startBackends(t, 2, false)
	for i := range cfgBackends {
		cfgBackends[i].MetricsURL = "stub://" + cfgBackends[i].Name
	}
	// The fetch stub plays a backend whose policy engine has quarantined
	// its event domain, then recovers.
	quarantined := map[string]bool{"stub://b1": true}
	fetch := func(url string) ([]byte, error) {
		if quarantined[url] {
			return []byte(`{"sdrad_policy_state": {"4": 2}}`), nil
		}
		return []byte(`{"sdrad_policy_state": {"4": 0}}`), nil
	}
	rt, addr := startRouter(t, Config{
		Backends: cfgBackends,
		Fetch:    fetch,
		Health: HealthConfig{
			HoldOff:      time.Second,
			ProbationOKs: 2,
			Clock:        mc.Now,
		},
	})
	c := mustDial(t, addr)

	rt.PollOnce()
	if rt.Health().State(1) != HealthDemoted {
		t.Fatal("quarantined backend not demoted on poll")
	}
	// Its keys spill; the cluster keeps serving.
	key := keyOn(rt, "q", 1)
	if rep, err := c.Do(memcache.FormatSet(key, []byte("x"), 0)); err != nil || !bytes.Equal(rep, []byte("STORED\r\n")) {
		t.Fatalf("spill during quarantine: %q err=%v", rep, err)
	}

	// Backend recovers; hold-off expires. Healthy telemetry alone does
	// not readmit it: the next routing decision readmits on probation
	// and traffic promotes it back to Up.
	quarantined["stub://b1"] = false
	mc.Advance(1100 * time.Millisecond)
	rt.PollOnce()
	if got := rt.Health().State(1); got != HealthDemoted {
		t.Fatalf("backend %v after a healthy poll and before any traffic, want still demoted", got)
	}
	for i := 0; i < 3; i++ {
		if rep, err := c.Do(memcache.FormatSet(key, []byte("back"), 0)); err != nil || !bytes.Equal(rep, []byte("STORED\r\n")) {
			t.Fatalf("post-readmit set %d: %q err=%v", i, rep, err)
		}
	}
	if got := rt.Health().State(1); got != HealthUp {
		t.Fatalf("backend state %v after probation traffic, want up", got)
	}
	// And the key now routes to its primary again.
	cb := mustDial(t, backends[1].ln.Addr().String())
	rep, err := cb.Do(memcache.FormatGet(key))
	if val, _, ok := memcache.ParseGetValue(rep); err != nil || !ok || string(val) != "back" {
		t.Fatalf("primary did not receive post-readmit writes: %q err=%v", rep, err)
	}
}
