package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"sdrad/internal/memcache"
)

// testBackend is one in-process hardened memcached behind a loopback
// listener.
type testBackend struct {
	name string
	srv  *memcache.Server
	ln   net.Listener
}

func (b *testBackend) stop() {
	b.srv.Stop()
	_ = b.ln.Close()
}

func startBackend(t *testing.T, name string) *testBackend {
	t.Helper()
	srv, err := memcache.NewServer(memcache.Config{
		Variant:    memcache.VariantSDRaD,
		Workers:    1,
		HashPower:  10,
		CacheBytes: 4 << 20,
	})
	if err != nil {
		t.Fatalf("backend %s: %v", name, err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Stop()
		t.Fatalf("backend %s: %v", name, err)
	}
	go func() { _ = srv.ServeListener(ln) }()
	return &testBackend{name: name, srv: srv, ln: ln}
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
	var backends []*testBackend
	var cfgBackends []Backend
	for i := 0; i < 3; i++ {
		b := startBackend(t, fmt.Sprintf("b%d", i))
		defer b.stop()
		backends = append(backends, b)
		cfgBackends = append(cfgBackends, Backend{Name: b.name, Addr: b.ln.Addr().String()})
	}
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
	mc := &manualClock{ns: 1}
	var backends []*testBackend
	var cfgBackends []Backend
	for i := 0; i < 3; i++ {
		b := startBackend(t, fmt.Sprintf("b%d", i))
		defer b.stop()
		backends = append(backends, b)
		cfgBackends = append(cfgBackends, Backend{Name: b.name, Addr: b.ln.Addr().String()})
	}
	rt, addr := startRouter(t, Config{
		Backends: cfgBackends,
		Health: HealthConfig{
			FailThreshold: 2,
			HoldOff:       time.Hour, // never readmitted within the test
			Clock:         mc.Now,
		},
	})
	c := mustDial(t, addr)

	// Find a key owned by backend 1 and one owned by backend 0.
	keyOn := func(b int) string {
		for i := 0; ; i++ {
			k := fmt.Sprintf("spill%d", i)
			if rt.Ring().Primary(k) == b {
				return k
			}
		}
	}
	victimKey, survivorKey := keyOn(1), keyOn(0)
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
}

func TestRouterQuarantineReadmit(t *testing.T) {
	mc := &manualClock{ns: 1}
	var cfgBackends []Backend
	var backends []*testBackend
	for i := 0; i < 2; i++ {
		b := startBackend(t, fmt.Sprintf("b%d", i))
		defer b.stop()
		backends = append(backends, b)
		cfgBackends = append(cfgBackends, Backend{
			Name: b.name, Addr: b.ln.Addr().String(),
			MetricsURL: fmt.Sprintf("stub://b%d", i),
		})
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
	key := func() string {
		for i := 0; ; i++ {
			k := fmt.Sprintf("q%d", i)
			if rt.Ring().Primary(k) == 1 {
				return k
			}
		}
	}()
	if rep, err := c.Do(memcache.FormatSet(key, []byte("x"), 0)); err != nil || !bytes.Equal(rep, []byte("STORED\r\n")) {
		t.Fatalf("spill during quarantine: %q err=%v", rep, err)
	}

	// Backend recovers; hold-off expires; the next decision readmits on
	// probation and traffic promotes it back to Up.
	quarantined["stub://b1"] = false
	mc.Advance(1100 * time.Millisecond)
	rt.PollOnce()
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
