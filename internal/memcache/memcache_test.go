package memcache

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"sdrad/internal/policy"
	"sdrad/internal/proc"
	"sdrad/internal/telemetry"
)

// startServer builds a server with small test-sized defaults.
func startServer(t testing.TB, variant Variant, workers int) *Server {
	t.Helper()
	s, err := NewServer(Config{
		Variant:    variant,
		Workers:    workers,
		HashPower:  10,
		CacheBytes: 4 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s
}

// connOn opens connections until one is placed on the given worker.
func connOn(s *Server, worker int) *Conn {
	for {
		if c := s.NewConn(); c.WorkerIndex() == worker {
			return c
		}
	}
}

// allVariants runs a subtest per variant.
func allVariants(t *testing.T, fn func(t *testing.T, v Variant)) {
	for _, v := range []Variant{VariantVanilla, VariantTLSF, VariantSDRaD} {
		t.Run(v.String(), func(t *testing.T) { fn(t, v) })
	}
}

func mustDo(t *testing.T, c *Conn, req []byte) []byte {
	t.Helper()
	resp, closed, err := c.Do(req)
	if err != nil {
		t.Fatalf("Do(%q): %v", bytes.TrimRight(req[:min(len(req), 40)], "\r\n"), err)
	}
	if closed {
		t.Fatalf("Do(%q): connection closed", req[:min(len(req), 40)])
	}
	return resp
}

func TestSetGetDeleteAllVariants(t *testing.T) {
	allVariants(t, func(t *testing.T, v Variant) {
		s := startServer(t, v, 2)
		c := s.NewConn()

		if got := mustDo(t, c, FormatSet("alpha", []byte("value-1"), 7)); string(got) != "STORED\r\n" {
			t.Fatalf("set resp = %q", got)
		}
		resp := mustDo(t, c, FormatGet("alpha"))
		val, flags, ok := ParseGetValue(resp)
		if !ok || string(val) != "value-1" || flags != 7 {
			t.Fatalf("get resp = %q (ok=%v val=%q flags=%d)", resp, ok, val, flags)
		}
		if got := mustDo(t, c, FormatGet("missing")); string(got) != "END\r\n" {
			t.Fatalf("miss resp = %q", got)
		}
		if got := mustDo(t, c, FormatDelete("alpha")); string(got) != "DELETED\r\n" {
			t.Fatalf("delete resp = %q", got)
		}
		if got := mustDo(t, c, FormatDelete("alpha")); string(got) != "NOT_FOUND\r\n" {
			t.Fatalf("re-delete resp = %q", got)
		}
		if got := mustDo(t, c, FormatGet("alpha")); string(got) != "END\r\n" {
			t.Fatalf("get after delete = %q", got)
		}
	})
}

func TestOverwriteAndMultiGet(t *testing.T) {
	allVariants(t, func(t *testing.T, v Variant) {
		s := startServer(t, v, 1)
		c := s.NewConn()
		mustDo(t, c, FormatSet("k1", []byte("v1"), 0))
		mustDo(t, c, FormatSet("k2", []byte("v2"), 0))
		mustDo(t, c, FormatSet("k1", []byte("v1-new"), 0))
		resp := mustDo(t, c, []byte("get k1 k2\r\n"))
		text := string(resp)
		if !strings.Contains(text, "v1-new") || !strings.Contains(text, "v2") {
			t.Fatalf("multi-get = %q", text)
		}
		if strings.Count(text, "VALUE") != 2 {
			t.Fatalf("expected 2 values: %q", text)
		}
	})
}

func TestIncrDecr(t *testing.T) {
	allVariants(t, func(t *testing.T, v Variant) {
		s := startServer(t, v, 1)
		c := s.NewConn()
		mustDo(t, c, FormatSet("n", []byte("10"), 0))
		if got := mustDo(t, c, []byte("incr n 5\r\n")); string(got) != "15\r\n" {
			t.Fatalf("incr = %q", got)
		}
		if got := mustDo(t, c, []byte("decr n 20\r\n")); string(got) != "0\r\n" {
			t.Fatalf("decr floor = %q", got)
		}
		if got := mustDo(t, c, []byte("incr missing 1\r\n")); string(got) != "NOT_FOUND\r\n" {
			t.Fatalf("incr missing = %q", got)
		}
		mustDo(t, c, FormatSet("s", []byte("abc"), 0))
		if got := mustDo(t, c, []byte("incr s 1\r\n")); !strings.HasPrefix(string(got), "CLIENT_ERROR") {
			t.Fatalf("incr non-numeric = %q", got)
		}
	})
}

func TestProtocolErrors(t *testing.T) {
	s := startServer(t, VariantVanilla, 1)
	c := s.NewConn()
	for _, req := range []string{
		"bogus\r\n",
		"get\r\n",
		"set onlykey\r\n",
		"set k x 0 4\r\nabcd\r\n",
		"delete\r\n",
		"incr n\r\n",
		"\r\n",
	} {
		resp, _, err := c.Do([]byte(req))
		if err != nil {
			t.Fatalf("%q: %v", req, err)
		}
		text := string(resp)
		if !strings.HasPrefix(text, "ERROR") && !strings.HasPrefix(text, "CLIENT_ERROR") {
			t.Errorf("%q -> %q, want an error response", req, text)
		}
	}
	// Unterminated command line.
	resp, _, err := c.Do([]byte("set without newline"))
	if err != nil || !strings.HasPrefix(string(resp), "ERROR") {
		t.Errorf("unterminated = %q, %v", resp, err)
	}
}

func TestStatsAndVersion(t *testing.T) {
	s := startServer(t, VariantSDRaD, 1)
	c := s.NewConn()
	mustDo(t, c, FormatSet("a", []byte("1"), 0))
	mustDo(t, c, FormatGet("a"))
	resp := string(mustDo(t, c, []byte("stats\r\n")))
	if !strings.Contains(resp, "STAT curr_items 1") {
		t.Errorf("stats = %q", resp)
	}
	if !strings.Contains(string(mustDo(t, c, []byte("version\r\n"))), "VERSION") {
		t.Error("no version")
	}
}

func TestQuitClosesConnection(t *testing.T) {
	s := startServer(t, VariantVanilla, 1)
	c := s.NewConn()
	_, closed, err := c.Do([]byte("quit\r\n"))
	if err != nil || !closed {
		t.Fatalf("quit: closed=%v err=%v", closed, err)
	}
	_, closed, err = c.Do(FormatGet("x"))
	if !closed || !errors.Is(err, ErrConnClosed) {
		t.Fatalf("post-quit: closed=%v err=%v", closed, err)
	}
}

func TestLargeValuesAndEviction(t *testing.T) {
	s, err := NewServer(Config{
		Variant:     VariantTLSF,
		Workers:     1,
		HashPower:   8,
		CacheBytes:  1 << 20,    // small: force eviction
		ConnBufSize: 128 * 1024, // large enough to carry the oversized value
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	c := s.NewConn()
	val := bytes.Repeat([]byte("x"), 4096)
	for i := 0; i < 600; i++ { // ~2.4 MiB through a 1 MiB cache
		key := fmt.Sprintf("key-%04d", i)
		resp := mustDo(t, c, FormatSet(key, val, 0))
		if string(resp) != "STORED\r\n" {
			t.Fatalf("set %d = %q", i, resp)
		}
	}
	st := s.StorageStats()
	if st.Evictions == 0 {
		t.Error("no evictions despite cache pressure")
	}
	// Recent keys are present.
	resp := mustDo(t, c, FormatGet("key-0599"))
	if _, _, ok := ParseGetValue(resp); !ok {
		t.Error("most recent key evicted")
	}
	// Value too large for any slab class.
	huge := bytes.Repeat([]byte("y"), 80*1024)
	if string(mustDo(t, c, FormatSet("huge", huge, 0)))[:12] != "SERVER_ERROR" {
		t.Error("oversized value accepted")
	}
}

func TestCVE2011_4971_BaselineCrashes(t *testing.T) {
	// The unhardened build dies: one malicious request kills the whole
	// process and takes every other client with it (paper §V-A).
	s := startServer(t, VariantVanilla, 2)
	good := s.NewConn()
	mustDo(t, good, FormatSet("persist", []byte("data"), 0))

	evil := s.NewConn()
	_, _, err := evil.Do(FormatBSet("atk", 16<<20, []byte("payload")))
	if err == nil {
		t.Fatal("malicious request succeeded")
	}
	crashed, cause := s.Crashed()
	if !crashed {
		t.Fatal("process survived; expected crash")
	}
	t.Logf("baseline crash cause: %v", cause)
	// All other connections are dead.
	_, _, err = good.Do(FormatGet("persist"))
	if !errors.Is(err, ErrServerDown) {
		t.Errorf("other client err = %v, want ErrServerDown", err)
	}
}

func TestCVE2011_4971_SDRaDRewinds(t *testing.T) {
	// The hardened build recovers: the attack is confined to the event
	// domain, the domain is discarded, only the malicious connection is
	// closed, and data stored by other clients remains intact.
	s := startServer(t, VariantSDRaD, 2)
	good := s.NewConn()
	mustDo(t, good, FormatSet("persist", []byte("survives"), 0))

	evil := s.NewConn()
	resp, closed, err := evil.Do(FormatBSet("atk", 16<<20, []byte("payload")))
	if err != nil {
		t.Fatalf("attack request transport error: %v", err)
	}
	if !closed {
		t.Fatalf("attacker connection not closed (resp %q)", resp)
	}
	if s.Rewinds() != 1 {
		t.Errorf("rewinds = %d", s.Rewinds())
	}
	if crashed, cause := s.Crashed(); crashed {
		t.Fatalf("hardened server crashed: %v", cause)
	}

	// Other clients keep working; stored data intact.
	got := mustDo(t, good, FormatGet("persist"))
	val, _, ok := ParseGetValue(got)
	if !ok || string(val) != "survives" {
		t.Errorf("data after attack = %q", got)
	}
	// The server keeps accepting new work, including on the same worker.
	c2 := s.NewConn()
	mustDo(t, c2, FormatSet("after", []byte("attack"), 0))
	if _, _, ok := ParseGetValue(mustDo(t, c2, FormatGet("after"))); !ok {
		t.Error("set after attack failed")
	}
}

func TestShortOverflowOfTheStagingBufferRewinds(t *testing.T) {
	// A claimed length only a little past the staging buffer keeps the
	// CVE-2011-4971 copy inside the event domain, where the MMU sees
	// nothing: it overwrites the header of the heap block behind the
	// buffer. The free of the buffer finds that header inconsistent and
	// aborts, as glibc's free does, so the event rewinds instead of leaving
	// every later event on the worker a corrupt domain heap.
	for _, claimed := range []int{stagingSize + 1, stagingSize + 16, 8 << 10} {
		s, rec := startTelServer(t, VariantSDRaD, 1)
		good := s.NewConn()
		mustDo(t, good, FormatSet("persist", []byte("survives"), 0))
		if resp, closed, err := s.NewConn().Do(FormatBSet("atk", claimed, nil)); err != nil || !closed || s.Rewinds() != 1 {
			t.Fatalf("claimed %d: %q closed=%v err=%v after %d rewinds, want one rewind", claimed, resp, closed, err, s.Rewinds())
		}
		if rep, _ := rec.Forensics().Last(); rep.SignalName != "SIGABRT" || rep.SiCodeName != "HEAP_CHK" {
			t.Errorf("claimed %d: forensics %s/%s, want SIGABRT/HEAP_CHK", claimed, rep.SignalName, rep.SiCodeName)
		}
		if val, _, ok := ParseGetValue(mustDo(t, good, FormatGet("persist"))); !ok || string(val) != "survives" {
			t.Errorf("claimed %d: persist = %q %v", claimed, val, ok)
		}
		if err := good.Inspect(func(th *proc.Thread) error {
			if rep := s.Library().Audit(th); !rep.Ok() {
				t.Errorf("claimed %d: audit: %v", claimed, rep.Findings)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIdleWorkerAuditAfterSiblingRewind: a worker's PKRU policy names
// only its own event domain, so a sibling's rewind leaves nothing stale
// in the register of a worker that sat idle since: its monitor audit is
// clean without a request first.
func TestIdleWorkerAuditAfterSiblingRewind(t *testing.T) {
	s := startServer(t, VariantSDRaD, 2)
	mustDo(t, connOn(s, 0), FormatSet("w0", []byte("v"), 0))
	idle := connOn(s, 1)
	mustDo(t, idle, FormatSet("w1", []byte("v"), 0))
	if _, closed, err := connOn(s, 0).Do(FormatBSet("atk", 16<<20, []byte("payload"))); err != nil || !closed {
		t.Fatalf("attack: closed=%v err=%v", closed, err)
	}
	if s.Rewinds() != 1 {
		t.Fatalf("rewinds = %d, want 1", s.Rewinds())
	}
	if err := idle.Inspect(func(th *proc.Thread) error {
		if rep := s.Library().Audit(th); !rep.Ok() {
			t.Errorf("audit on the idle worker: %v", rep.Findings)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRepeatedAttacksKeepRecovering(t *testing.T) {
	s := startServer(t, VariantSDRaD, 1)
	for i := 0; i < 5; i++ {
		evil := s.NewConn()
		_, closed, err := evil.Do(FormatBSet("atk", 16<<20, nil))
		if err != nil || !closed {
			t.Fatalf("attack %d: closed=%v err=%v", i, closed, err)
		}
		// Normal operation between attacks.
		c := s.NewConn()
		key := fmt.Sprintf("k%d", i)
		mustDo(t, c, FormatSet(key, []byte("v"), 0))
	}
	if s.Rewinds() != 5 {
		t.Errorf("rewinds = %d", s.Rewinds())
	}
	if crashed, _ := s.Crashed(); crashed {
		t.Error("server crashed")
	}
}

// TestEventDomainHeldOffServesMisses: the policy decides per guard scope,
// so a worker whose event domain is live serves misses while a sibling
// worker's attacks hold the shared event UDI off, and hits again once the
// hold-off expires.
func TestEventDomainHeldOffServesMisses(t *testing.T) {
	clk := &policy.ManualClock{}
	eng := policy.New(policy.Config{BackoffThreshold: 2, BackoffBase: 10 * time.Millisecond, Clock: clk.Now})
	s, err := NewServer(Config{
		Variant:    VariantSDRaD,
		Workers:    2,
		HashPower:  10,
		CacheBytes: 4 << 20,
		Policy:     eng,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	live := connOn(s, 1)
	mustDo(t, live, FormatSet("k", []byte("v"), 0))
	for i := 0; i < 2; i++ { // two rewinds in the window: backoff, 10ms hold-off
		if _, closed, err := connOn(s, 0).Do(FormatBSet("atk", 16<<20, nil)); err != nil || !closed {
			t.Fatalf("attack %d: closed=%v err=%v", i, closed, err)
		}
	}
	if got := mustDo(t, live, FormatGet("k")); string(got) != "END\r\n" {
		t.Fatalf("held-off get = %q, want a miss", got)
	}
	clk.Advance(10 * time.Millisecond)
	if val, _, ok := ParseGetValue(mustDo(t, live, FormatGet("k"))); !ok || string(val) != "v" {
		t.Fatalf("get after the hold-off = %q, want VALUE v", val)
	}
	if s.Degraded() != 1 || s.Rewinds() != 2 {
		t.Errorf("degraded=%d rewinds=%d, want 1/2", s.Degraded(), s.Rewinds())
	}
}

// TestPolicyLadderServesDegradedAndKeepsTheStore walks the event domain
// up the ladder with CVE-2011-4971 attacks on the engine's manual clock:
// each attack is one rewind whose decision lands in its forensics report,
// with clean library and shard audits after it; while the domain is held
// off or quarantined, gets are misses and mutations SERVER_ERROR, without
// a guard scope; after each hold-off the stored value reads back intact,
// because the degraded path never touched the store.
func TestPolicyLadderServesDegradedAndKeepsTheStore(t *testing.T) {
	clk := &policy.ManualClock{}
	eng := policy.New(policy.Config{Window: time.Second, BackoffThreshold: 2, QuarantineThreshold: 4,
		ShedThreshold: -1, BackoffBase: 10 * time.Millisecond, BackoffMax: 40 * time.Millisecond,
		Cooldown: 100 * time.Millisecond, Clock: clk.Now})
	rec := telemetry.New(telemetry.Options{})
	s, err := NewServer(Config{Variant: VariantSDRaD, Workers: 1, HashPower: 10, CacheBytes: 4 << 20,
		Policy: eng, Telemetry: rec})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	c := s.NewConn()
	mustDo(t, c, FormatSet("persist", []byte("survives-quarantine"), 7))
	attack := func(state, action string, window int) {
		t.Helper()
		if _, closed, err := s.NewConn().Do(FormatBSet("atk", 1<<20, nil)); err != nil || !closed {
			t.Fatalf("attack: closed=%v err=%v", closed, err)
		}
		rep, _ := rec.Forensics().Last()
		if rep.PolicyState != state || rep.PolicyAction != action || rep.PolicyWindowCount != window {
			t.Errorf("attack %d: decision %s/%s/%d, want %s/%s/%d", window,
				rep.PolicyState, rep.PolicyAction, rep.PolicyWindowCount, state, action, window)
		}
		faults := s.Process().AddressSpace().RecentFaults()
		if f := faults[len(faults)-1]; f.Injected || rep.SiCode != int(f.Code) || rep.Addr != uint64(f.Addr) {
			t.Errorf("attack %d: report %s at %#x, fault log %v at %#x", window, rep.SiCodeName, rep.Addr, f.Code, uint64(f.Addr))
		}
		if err := c.Inspect(func(th *proc.Thread) error {
			if rep := s.Library().Audit(th); !rep.Ok() {
				return fmt.Errorf("audit: %v", rep.Findings)
			}
			return s.Storage().AuditShards(th.CPU())
		}); err != nil {
			t.Errorf("attack %d: %v", window, err)
		}
	}
	expect := func(req []byte, want string) {
		t.Helper()
		if got := mustDo(t, c, req); !strings.HasPrefix(string(got), want) {
			t.Errorf("%q: %q, want %s", req, got, want)
		}
	}
	attack("healthy", "rewind", 1)
	expect(FormatGet("persist"), "VALUE")
	attack("backoff", "backoff", 2) // a 10 ms hold-off
	expect(FormatGet("persist"), "END")
	expect(FormatSet("x", []byte("y"), 0), "SERVER_ERROR")
	clk.Advance(10 * time.Millisecond)
	expect(FormatGet("persist"), "VALUE")
	attack("backoff", "backoff", 3) // 20 ms
	clk.Advance(20 * time.Millisecond)
	attack("quarantined", "quarantine", 4) // a 100 ms cool-down
	expect(FormatGet("persist"), "END")
	expect(FormatDelete("persist"), "SERVER_ERROR")
	clk.Advance(100 * time.Millisecond) // probation
	if val, _, ok := ParseGetValue(mustDo(t, c, FormatGet("persist"))); !ok || string(val) != "survives-quarantine" {
		t.Errorf("get after the cool-down: %q, want the stored value", val)
	}
	if s.Degraded() != 4 || s.Rewinds() != 4 || rec.Forensics().Added() != 4 {
		t.Errorf("degraded=%d rewinds=%d forensics reports=%d, want 4/4/4", s.Degraded(), s.Rewinds(), rec.Forensics().Added())
	}
	if snaps := eng.Snapshot(); len(snaps) != 1 || snaps[0].State != "backoff" || snaps[0].TotalRewinds != 4 {
		t.Errorf("engine snapshot %+v, want the event domain on probation after 4 rewinds", snaps)
	}
}

func TestDeferredUpdateAtomicity(t *testing.T) {
	// A request that stores data and then triggers the attack must not
	// leave the partial store visible: the deferred update dies with the
	// domain (paper: "due to the atomic nature of the Memcached
	// requests, consistency is not affected").
	s := startServer(t, VariantSDRaD, 1)
	evil := s.NewConn()
	// bset stores the key only after the vulnerable copy; the overflow
	// happens first, so the store must never appear.
	_, closed, _ := evil.Do(FormatBSet("half-stored", 16<<20, []byte("payload")))
	if !closed {
		t.Fatal("attack not detected")
	}
	c := s.NewConn()
	resp := mustDo(t, c, FormatGet("half-stored"))
	if _, _, ok := ParseGetValue(resp); ok {
		t.Error("partial store leaked into the database")
	}
}

func TestBSetWithHonestLengthWorks(t *testing.T) {
	// The binary-set path itself is functional when the header is
	// truthful and within bounds.
	allVariants(t, func(t *testing.T, v Variant) {
		s := startServer(t, v, 1)
		c := s.NewConn()
		data := []byte("honest-data")
		if got := mustDo(t, c, FormatBSet("bk", len(data), data)); string(got) != "STORED\r\n" {
			t.Fatalf("bset = %q", got)
		}
		val, _, ok := ParseGetValue(mustDo(t, c, FormatGet("bk")))
		if !ok || string(val) != "honest-data" {
			t.Fatalf("bset round trip = %q", val)
		}
	})
}

func TestConcurrentClients(t *testing.T) {
	allVariants(t, func(t *testing.T, v Variant) {
		s := startServer(t, v, 4)
		done := make(chan error, 8)
		for g := 0; g < 8; g++ {
			go func(g int) {
				c := s.NewConn()
				for i := 0; i < 50; i++ {
					key := fmt.Sprintf("g%d-k%d", g, i)
					if _, _, err := c.Do(FormatSet(key, []byte(key), 0)); err != nil {
						done <- err
						return
					}
					resp, _, err := c.Do(FormatGet(key))
					if err != nil {
						done <- err
						return
					}
					if val, _, ok := ParseGetValue(resp); !ok || string(val) != key {
						done <- fmt.Errorf("g%d: bad value %q", g, val)
						return
					}
				}
				done <- nil
			}(g)
		}
		for g := 0; g < 8; g++ {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
		st := s.StorageStats()
		if st.Items != 400 {
			t.Errorf("items = %d, want 400", st.Items)
		}
	})
}

func TestServeListenerTCPRoundTrip(t *testing.T) {
	s := startServer(t, VariantSDRaD, 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.ServeListener(ln) }()

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = nc.Close() }()
	if _, err := nc.Write(FormatSet("tcp-key", []byte("tcp-val"), 0)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	n, err := nc.Read(buf)
	if err != nil || string(buf[:n]) != "STORED\r\n" {
		t.Fatalf("set over tcp = %q, %v", buf[:n], err)
	}
	if _, err := nc.Write(FormatGet("tcp-key")); err != nil {
		t.Fatal(err)
	}
	n, err = nc.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if val, _, ok := ParseGetValue(buf[:n]); !ok || string(val) != "tcp-val" {
		t.Fatalf("get over tcp = %q", buf[:n])
	}
}

func TestMappedBytesGrowsWithData(t *testing.T) {
	s := startServer(t, VariantSDRaD, 1)
	if s.MappedBytes() == 0 {
		t.Error("no mapped memory")
	}
}

func TestRequestTooLarge(t *testing.T) {
	s := startServer(t, VariantVanilla, 1)
	c := s.NewConn()
	big := FormatSet("k", bytes.Repeat([]byte("z"), 64*1024), 0)
	_, _, err := c.Do(big)
	if !errors.Is(err, ErrRequestTooLarge) {
		t.Errorf("err = %v", err)
	}
}

func TestVariantString(t *testing.T) {
	if VariantVanilla.String() != "vanilla" || VariantTLSF.String() != "tlsf" ||
		VariantSDRaD.String() != "sdrad" || Variant(9).String() != "unknown" {
		t.Error("Variant.String broken")
	}
}

// heapInuse is the Go heap in use, read after a collection when collect is
// set.
func heapInuse(collect bool) uint64 {
	if collect {
		runtime.GC()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

func TestStoppedServerIsCollectable(t *testing.T) {
	// A stopped server and its simulated memory must be garbage after ONE
	// collection: nothing the request path leaves behind (the hand-off's
	// events, its sweepers) may keep the process reachable — a sync.Pool of
	// events does, for two. Held memory shows as set-up time of the next
	// server built in the process. A reply the caller keeps across Stop
	// keeps its bytes, since no call follows it on its connection, and pins
	// no more than that connection's reply block.
	allVariants(t, func(t *testing.T, v Variant) {
		before := heapInuse(true)
		var held []byte
		want := getEntry("key-0", bytes.Repeat([]byte("v"), 512)) + "END\r\n"
		func() {
			s, err := NewServer(Config{Variant: v, Workers: 2, CacheBytes: 32 << 20})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					c := s.NewConn()
					key := fmt.Sprintf("key-%d", i)
					set, get := FormatSet(key, bytes.Repeat([]byte("v"), 512), 0), FormatGet(key)
					for n := 0; n < 5000; n++ {
						req := get
						if n%10 == 0 {
							req = set
						}
						if _, closed, err := c.Do(req); err != nil || closed {
							t.Errorf("Do: closed=%v err=%v", closed, err)
							return
						}
					}
					for n := 0; n < 4; n++ {
						for _, r := range c.DoPipeline([][]byte{get, set, get, get, get, get}) {
							if r.Err != nil || r.Closed {
								t.Errorf("DoPipeline: %+v", r)
							}
						}
					}
				}()
			}
			wg.Wait()
			if inuse := heapInuse(false) - before; inuse < 24<<20 {
				t.Fatalf("a live server holds %d MiB of Go heap; the test no longer measures its memory", inuse>>20)
			}
			held = mustDo(t, s.NewConn(), FormatGet("key-0"))
			s.Stop()
		}()
		if after := heapInuse(true); after > before+8<<20 {
			t.Errorf("HeapInuse %d MiB before the server, %d MiB after Stop and one GC: the stopped server is still reachable",
				before>>20, after>>20)
		}
		if string(held) != want {
			t.Errorf("a reply held across Stop reads %q, want %q", held[:min(len(held), 24)], want[:24])
		}
	})
}
