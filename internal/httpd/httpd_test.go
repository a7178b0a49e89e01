package httpd

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"

	"sdrad/internal/mem"
	"sdrad/internal/policy"
	"sdrad/internal/proc"
	"sdrad/internal/telemetry"
)

var testFiles = map[string]int{
	"/index.html": 512,
	"/big.bin":    8 * 1024,
	"/empty.bin":  0,
}

func startMaster(t testing.TB, v Variant, workers int) *Master {
	t.Helper()
	m, err := NewMaster(Config{Variant: v, Workers: workers, Files: testFiles})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	return m
}

func allVariants(t *testing.T, fn func(t *testing.T, v Variant)) {
	for _, v := range []Variant{VariantVanilla, VariantTLSF, VariantSDRaD} {
		t.Run(v.String(), func(t *testing.T) { fn(t, v) })
	}
}

func mustGet(t *testing.T, c *Conn, path string) string {
	t.Helper()
	resp, closed, err := c.Do(FormatRequest(path, true))
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	if closed {
		t.Fatalf("GET %s: connection closed", path)
	}
	return string(resp)
}

func TestServeStaticFiles(t *testing.T) {
	allVariants(t, func(t *testing.T, v Variant) {
		m := startMaster(t, v, 1)
		c := m.Worker(0).NewConn()
		resp := mustGet(t, c, "/index.html")
		if !strings.HasPrefix(resp, "HTTP/1.1 200 OK\r\n") {
			t.Fatalf("resp = %q", resp[:min(len(resp), 80)])
		}
		if !strings.Contains(resp, "Content-Length: 512\r\n") {
			t.Errorf("missing content length: %q", resp[:120])
		}
		body := resp[strings.Index(resp, "\r\n\r\n")+4:]
		if len(body) != 512 {
			t.Errorf("body len = %d", len(body))
		}
		if !strings.HasPrefix(body, "/index.html#") {
			t.Errorf("body content = %q", body[:24])
		}
	})
}

func TestKeepAliveMultipleRequests(t *testing.T) {
	allVariants(t, func(t *testing.T, v Variant) {
		m := startMaster(t, v, 1)
		c := m.Worker(0).NewConn()
		for i := 0; i < 20; i++ {
			resp := mustGet(t, c, "/big.bin")
			if !strings.HasPrefix(resp, "HTTP/1.1 200") {
				t.Fatalf("request %d failed", i)
			}
		}
	})
}

func Test404(t *testing.T) {
	m := startMaster(t, VariantSDRaD, 1)
	c := m.Worker(0).NewConn()
	resp := mustGet(t, c, "/nope")
	if !strings.HasPrefix(resp, "HTTP/1.1 404") {
		t.Errorf("resp = %q", resp[:40])
	}
}

func TestConnectionClose(t *testing.T) {
	m := startMaster(t, VariantVanilla, 1)
	c := m.Worker(0).NewConn()
	resp, closed, err := c.Do(FormatRequest("/index.html", false))
	if err != nil || !closed {
		t.Fatalf("closed=%v err=%v", closed, err)
	}
	if !strings.Contains(string(resp), "Connection: close") {
		t.Error("missing close header")
	}
	if _, _, err := c.Do(FormatRequest("/index.html", true)); !errors.Is(err, ErrConnClosed) {
		t.Errorf("reuse err = %v", err)
	}
}

func TestHeadRequest(t *testing.T) {
	m := startMaster(t, VariantTLSF, 1)
	c := m.Worker(0).NewConn()
	resp, _, err := c.Do([]byte("HEAD /big.bin HTTP/1.1\r\nHost: x\r\n\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(resp)
	if !strings.Contains(text, "Content-Length: 8192") {
		t.Errorf("resp = %q", text)
	}
	if body := text[strings.Index(text, "\r\n\r\n")+4:]; len(body) != 0 {
		t.Errorf("HEAD returned a body of %d bytes", len(body))
	}
}

func TestBadRequests(t *testing.T) {
	allVariants(t, func(t *testing.T, v Variant) {
		m := startMaster(t, v, 1)
		for _, raw := range []string{
			"BREW /pot HTTP/1.1\r\n\r\n",
			"GET /index.html\r\n\r\n",
			"GET /x HTTP/0.9\r\n\r\n",
			"GET noslash HTTP/1.1\r\n\r\n",
			"garbage\r\n\r\n",
			"GET /x HTTP/1.1\r\nBadHeaderNoColon\r\n\r\n",
		} {
			c := m.Worker(0).NewConn()
			resp, _, err := c.Do([]byte(raw))
			if err != nil {
				t.Fatalf("%q: %v", raw, err)
			}
			if !strings.HasPrefix(string(resp), "HTTP/1.1 400") {
				t.Errorf("%q -> %q, want 400", raw, resp[:min(len(resp), 40)])
			}
		}
	})
}

func TestLegitimateComplexURIs(t *testing.T) {
	allVariants(t, func(t *testing.T, v Variant) {
		m := startMaster(t, v, 1)
		c := m.Worker(0).NewConn()
		// All of these normalize to /index.html.
		for _, path := range []string{
			"/foo/../index.html",
			"//index.html",
			"/./index.html",
			"/a/b/../../index.html",
			"/a/./b/.././../index.html",
		} {
			resp := mustGet(t, c, path)
			if !strings.HasPrefix(resp, "HTTP/1.1 200") {
				t.Errorf("%s -> %q", path, resp[:min(len(resp), 40)])
			}
		}
		// Normalizing to an unknown path yields 404, not a crash.
		resp := mustGet(t, c, "/foo/../bar")
		if !strings.HasPrefix(resp, "HTTP/1.1 404") {
			t.Errorf("/foo/../bar -> %q", resp[:40])
		}
	})
}

// attackURI underflows the URI normalization buffer (CVE-2009-2629
// analog): far more ".." segments than path depth.
func attackURI() string {
	return "/" + strings.Repeat("../", 200)
}

func TestCVE2009_2629_BaselineKillsWorker(t *testing.T) {
	m := startMaster(t, VariantVanilla, 1)
	w := m.Worker(0)
	good := w.NewConn()
	mustGet(t, good, "/index.html")

	evil := w.NewConn()
	_, _, err := evil.Do(FormatRequest(attackURI(), true))
	if !errors.Is(err, ErrWorkerDown) {
		t.Fatalf("attack err = %v, want worker down", err)
	}
	crashed, cause := w.Crashed()
	if !crashed {
		t.Fatal("worker survived")
	}
	t.Logf("worker crash cause: %v", cause)
	// The good client's connection is gone too — the paper's point.
	if _, _, err := good.Do(FormatRequest("/index.html", true)); !errors.Is(err, ErrWorkerDown) {
		t.Errorf("good client err = %v", err)
	}
	// The master restarts the worker; new connections work again.
	if _, err := m.RestartWorker(0); err != nil {
		t.Fatal(err)
	}
	c := m.Worker(0).NewConn()
	if resp := mustGet(t, c, "/index.html"); !strings.HasPrefix(resp, "HTTP/1.1 200") {
		t.Error("restarted worker not serving")
	}
	if m.Restarts() != 1 {
		t.Errorf("restarts = %d", m.Restarts())
	}
}

func TestCVE2009_2629_SDRaDRewinds(t *testing.T) {
	m := startMaster(t, VariantSDRaD, 1)
	w := m.Worker(0)
	good := w.NewConn()
	mustGet(t, good, "/index.html")

	evil := w.NewConn()
	resp, closed, err := evil.Do(FormatRequest(attackURI(), true))
	if err != nil {
		t.Fatalf("attack transport err: %v", err)
	}
	if !closed {
		t.Fatalf("attacker connection not closed (resp %q)", resp[:min(len(resp), 60)])
	}
	if w.Rewinds() != 1 {
		t.Errorf("rewinds = %d", w.Rewinds())
	}
	if crashed, cause := w.Crashed(); crashed {
		t.Fatalf("hardened worker crashed: %v", cause)
	}
	// The good client's keep-alive connection is untouched.
	if resp := mustGet(t, good, "/big.bin"); !strings.HasPrefix(resp, "HTTP/1.1 200") {
		t.Error("good connection broken by rewind")
	}
}

func TestRepeatedParserAttacks(t *testing.T) {
	m := startMaster(t, VariantSDRaD, 1)
	w := m.Worker(0)
	survivor := w.NewConn()
	for i := 0; i < 5; i++ {
		evil := w.NewConn()
		_, closed, err := evil.Do(FormatRequest(attackURI(), true))
		if err != nil || !closed {
			t.Fatalf("attack %d: closed=%v err=%v", i, closed, err)
		}
		if resp := mustGet(t, survivor, "/index.html"); !strings.HasPrefix(resp, "HTTP/1.1 200") {
			t.Fatalf("survivor broken after attack %d", i)
		}
	}
	if w.Rewinds() != 5 {
		t.Errorf("rewinds = %d", w.Rewinds())
	}
}

func TestMultipleWorkersIndependent(t *testing.T) {
	m := startMaster(t, VariantVanilla, 3)
	// Kill worker 1 with the CVE; workers 0 and 2 keep serving.
	evil := m.Worker(1).NewConn()
	if _, _, err := evil.Do(FormatRequest(attackURI(), true)); !errors.Is(err, ErrWorkerDown) {
		t.Fatalf("err = %v", err)
	}
	for _, idx := range []int{0, 2} {
		c := m.Worker(idx).NewConn()
		if resp := mustGet(t, c, "/index.html"); !strings.HasPrefix(resp, "HTTP/1.1 200") {
			t.Errorf("worker %d not serving", idx)
		}
	}
}

func TestConcurrentConnections(t *testing.T) {
	allVariants(t, func(t *testing.T, v Variant) {
		m := startMaster(t, v, 2)
		done := make(chan error, 10)
		for g := 0; g < 10; g++ {
			go func(g int) {
				c := m.Worker(g % 2).NewConn()
				for i := 0; i < 25; i++ {
					resp, _, err := c.Do(FormatRequest("/index.html", true))
					if err != nil {
						done <- err
						return
					}
					if !strings.HasPrefix(string(resp), "HTTP/1.1 200") {
						done <- fmt.Errorf("g%d req%d: %q", g, i, resp[:20])
						return
					}
				}
				done <- nil
			}(g)
		}
		for g := 0; g < 10; g++ {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
	})
}

func TestPoolExhaustionIs400(t *testing.T) {
	// A URI bigger than the pool produces a clean 400, not a fault.
	m, err := NewMaster(Config{
		Variant:     VariantSDRaD,
		Files:       testFiles,
		PoolSize:    512,
		ConnBufSize: 8 * 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	c := m.Worker(0).NewConn()
	long := "/a/./" + strings.Repeat("b", 600) // complex + too big for pool
	resp, _, err := c.Do(FormatRequest(long, true))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(resp), "HTTP/1.1 400") {
		t.Errorf("resp = %q", resp[:min(len(resp), 40)])
	}
}

func TestRequestTooLargeIsError(t *testing.T) {
	m := startMaster(t, VariantVanilla, 1)
	c := m.Worker(0).NewConn()
	big := FormatRequest("/"+strings.Repeat("x", 9000), true)
	if _, _, err := c.Do(big); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v", err)
	}
}

func TestMappedBytes(t *testing.T) {
	m := startMaster(t, VariantSDRaD, 1)
	if m.Worker(0).MappedBytes() == 0 {
		t.Error("no mapped memory")
	}
}

func TestMethodAndVariantStrings(t *testing.T) {
	if MethodGET.String() != "GET" || MethodHEAD.String() != "HEAD" ||
		MethodPOST.String() != "POST" || Method(9).String() != "UNKNOWN" {
		t.Error("Method.String broken")
	}
	if VariantVanilla.String() != "vanilla" || Variant(9).String() != "unknown" {
		t.Error("Variant.String broken")
	}
}

func TestPipelineOrdering(t *testing.T) {
	// A pipelined burst returns responses in request order, batched vs
	// sequential bit-identical, across all variants.
	allVariants(t, func(t *testing.T, v Variant) {
		m := startMaster(t, v, 1)
		w := m.Worker(0)
		paths := []string{"/index.html", "/big.bin", "/missing.txt", "/empty.bin", "/index.html"}
		var reqs [][]byte
		for _, p := range paths {
			reqs = append(reqs, FormatRequest(p, true))
		}
		seq := w.NewConn()
		var want []string
		for _, p := range paths {
			want = append(want, mustGet(t, seq, p))
		}
		res := w.NewConn().DoPipeline(reqs)
		if len(res) != len(paths) {
			t.Fatalf("results = %d", len(res))
		}
		for i, r := range res {
			if r.Err != nil || r.Closed {
				t.Fatalf("res[%d]: closed=%v err=%v", i, r.Closed, r.Err)
			}
			if string(r.Resp) != want[i] {
				t.Errorf("res[%d] differs from sequential: %q vs %q",
					i, r.Resp[:min(len(r.Resp), 40)], want[i][:min(len(want[i]), 40)])
			}
		}
	})
}

func TestPipelineSpansBatches(t *testing.T) {
	m, err := NewMaster(Config{Variant: VariantSDRaD, Workers: 1, Files: testFiles, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	var reqs [][]byte
	for i := 0; i < 11; i++ {
		reqs = append(reqs, FormatRequest("/index.html", true))
	}
	res := m.Worker(0).NewConn().DoPipeline(reqs)
	if len(res) != 11 {
		t.Fatalf("results = %d", len(res))
	}
	for i, r := range res {
		if r.Err != nil || r.Closed || !strings.HasPrefix(string(r.Resp), "HTTP/1.1 200") {
			t.Fatalf("res[%d]: %q closed=%v err=%v", i, r.Resp[:min(len(r.Resp), 30)], r.Closed, r.Err)
		}
	}
}

func TestPipelineAttackMidBatchRewindsOnce(t *testing.T) {
	// The parser trap mid-batch rewinds once and discards the whole
	// batch: every request of the burst reports closed, the worker
	// survives, and other connections keep working.
	m := startMaster(t, VariantSDRaD, 1)
	w := m.Worker(0)
	good := w.NewConn()
	mustGet(t, good, "/index.html")

	evil := w.NewConn()
	res := evil.DoPipeline([][]byte{
		FormatRequest("/index.html", true),
		FormatRequest(attackURI(), true),
		FormatRequest("/big.bin", true),
	})
	for i, r := range res {
		if !r.Closed {
			t.Errorf("batch item %d not closed after rewind", i)
		}
	}
	if got := w.Rewinds(); got != 1 {
		t.Errorf("rewinds = %d, want 1 for the whole batch", got)
	}
	if crashed, cause := w.Crashed(); crashed {
		t.Fatalf("worker crashed: %v", cause)
	}
	mustGet(t, good, "/big.bin")
}

func TestPipelineConnectionCloseMidBatch(t *testing.T) {
	// A Connection: close response closes the conn for the requests
	// pipelined behind it, like the sequential flow.
	allVariants(t, func(t *testing.T, v Variant) {
		m := startMaster(t, v, 1)
		res := m.Worker(0).NewConn().DoPipeline([][]byte{
			FormatRequest("/index.html", true),
			FormatRequest("/index.html", false),
			FormatRequest("/index.html", true),
		})
		if res[0].Closed || res[0].Err != nil {
			t.Fatalf("res[0]: closed=%v err=%v", res[0].Closed, res[0].Err)
		}
		if !res[1].Closed || res[1].Err != nil {
			t.Errorf("res[1]: closed=%v err=%v, want server-side close", res[1].Closed, res[1].Err)
		}
		if !res[2].Closed || !errors.Is(res[2].Err, ErrConnClosed) {
			t.Errorf("res[2]: closed=%v err=%v, want closed conn", res[2].Closed, res[2].Err)
		}
	})
}

func TestPlaceWorkerLegacyRoundRobin(t *testing.T) {
	// PlaceWorker is the round-robin cursor (the listener and the
	// ledger's per-worker dialing rely on it).
	m := startMaster(t, VariantSDRaD, 3)
	for i := 0; i < 7; i++ {
		if got := m.PlaceWorker(); got != i%3 {
			t.Fatalf("placement %d = worker %d, want %d", i, got, i%3)
		}
	}
}

func TestPoolContentionGauges(t *testing.T) {
	rec := telemetry.New(telemetry.Options{})
	m, err := NewMaster(Config{
		Variant:   VariantSDRaD,
		Workers:   1,
		Files:     testFiles,
		Telemetry: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	w := m.Worker(0)
	c := w.NewConn()
	// Only the complex-URI normalizer allocates from the request pool.
	if resp := mustGet(t, c, "/subdir/../index.html"); !strings.HasPrefix(resp, "HTTP/1.1 200") {
		t.Fatalf("unexpected response %q", resp)
	}
	if hw := w.pool.HighWater(); hw == 0 {
		t.Fatal("pool high-water mark stayed 0 after a parsed request")
	}
	reg := rec.Registry()
	hw := reg.GaugeVec("sdrad_httpd_pool_high_water_bytes", "", "worker").With("0")
	if got := hw.Value(); got != int64(w.pool.HighWater()) {
		t.Errorf("high-water gauge = %d, want %d", got, w.pool.HighWater())
	}
	resets := reg.CounterVec("sdrad_httpd_pool_resets_total", "", "worker").With("0")
	if got := resets.Value(); got < 1 {
		t.Errorf("pool resets counter = %d, want >= 1", got)
	}
	exh := reg.CounterVec("sdrad_httpd_pool_exhaustions_total", "", "worker").With("0")
	if got := exh.Value(); got != 0 {
		t.Errorf("pool exhaustions = %d on a healthy request", got)
	}
}

// TestParserHeldOffAnswers503: the policy decides per guard scope, so a
// worker whose parser domain is live answers 503 while a sibling worker's
// attacks hold the shared parser UDI off, keeps the connection open,
// serves it again once the hold-off expires, and closes it once the UDI
// sheds.
func TestParserHeldOffAnswers503(t *testing.T) {
	clk := &policy.ManualClock{}
	eng := policy.New(policy.Config{
		BackoffThreshold:    2,
		QuarantineThreshold: 3,
		ShedThreshold:       4,
		BackoffBase:         10 * time.Millisecond,
		Cooldown:            100 * time.Millisecond,
		Clock:               clk.Now,
	})
	m, err := NewMaster(Config{
		Variant: VariantSDRaD,
		Workers: 2,
		Files:   testFiles,
		Policy:  eng,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	attack := func() {
		t.Helper()
		if _, closed, err := m.Worker(0).NewConn().Do(FormatRequest(attackURI(), true)); err != nil || !closed {
			t.Fatalf("attack: closed=%v err=%v", closed, err)
		}
	}
	live := m.Worker(1).NewConn()
	if resp := mustGet(t, live, "/index.html"); !strings.HasPrefix(resp, "HTTP/1.1 200") {
		t.Fatalf("first GET = %q", resp[:min(len(resp), 40)])
	}
	attack()
	attack() // two rewinds in the window: backoff, 10ms hold-off

	resp := mustGet(t, live, "/index.html")
	if !strings.HasPrefix(resp, "HTTP/1.1 503") {
		t.Fatalf("held-off GET = %q, want 503", resp[:min(len(resp), 40)])
	}
	_, after, _ := strings.Cut(resp, "Retry-After: ")
	secs, _, _ := strings.Cut(after, "\r\n")
	if n, err := strconv.Atoi(secs); err != nil || n < 1 {
		t.Errorf("Retry-After %q, want at least 1", secs)
	}

	clk.Advance(10 * time.Millisecond)
	if resp := mustGet(t, live, "/index.html"); !strings.HasPrefix(resp, "HTTP/1.1 200") {
		t.Fatalf("GET after the hold-off = %q, want 200", resp[:min(len(resp), 40)])
	}

	attack() // third rewind: quarantined
	clk.Advance(100 * time.Millisecond)
	attack() // readmitted on probation, fourth rewind: shedding
	if _, closed, err := live.Do(FormatRequest("/index.html", true)); err != nil || !closed {
		t.Fatalf("GET while shedding: closed=%v err=%v, want the connection closed", closed, err)
	}
	if w := m.Worker(1); w.Degraded() != 1 || w.Shed() != 1 || w.Rewinds() != 0 {
		t.Errorf("worker 1 degraded=%d shed=%d rewinds=%d, want 1/1/0", w.Degraded(), w.Shed(), w.Rewinds())
	}
}

func TestHandOffAllocationBudget(t *testing.T) {
	// A warm keep-alive GET allocates nothing on both variants: hardening
	// adds none, Do runs on the call record its Conn carries, completion
	// channel included, the parser takes a served file's Path from the file table,
	// and the reply is carved from the connection's reply block.
	req := FormatRequest("/index.html", true)
	for _, v := range []Variant{VariantVanilla, VariantSDRaD} {
		c := startMaster(t, v, 1).Worker(0).NewConn()
		mustGet(t, c, "/index.html") // creates the parser domain and buffers
		if n := testing.AllocsPerRun(100, func() { _, _, _ = c.Do(req) }); n > 0 {
			t.Errorf("%v: warm Do allocates %.0f times, budget 0", v, n)
		}
	}
}

func TestWarmGetHeapBytesPerCall(t *testing.T) {
	// testing.AllocsPerRun truncates an allocation made once every so many
	// calls, such as a 32 KiB reply block shared by about thirty 1 KiB
	// replies, to none; the heap's byte count sees it. A warm keep-alive
	// GET of a 1 KiB file must allocate under 64 bytes a call, averaged
	// over 2,000 calls, on both variants.
	const calls = 2000
	req := FormatRequest("/1k", true)
	for _, v := range []Variant{VariantVanilla, VariantSDRaD} {
		m, err := NewMaster(Config{Variant: v, Workers: 1, Files: map[string]int{"/1k": 1024}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Stop)
		c := m.Worker(0).NewConn()
		mustGet(t, c, "/1k") // creates the parser domain and buffers
		mustGet(t, c, "/1k") // sizes the connection's reply block
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range calls {
			if _, closed, err := c.Do(req); err != nil || closed {
				t.Fatalf("Do: closed=%v err=%v", closed, err)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 64 {
			t.Errorf("%v: a warm GET of 1 KiB allocates %d bytes a call, budget 63", v, per)
		}
	}
}

func TestRepliesLastUntilTheNextCall(t *testing.T) {
	// As memcache's test of the same name: a reply lives in its
	// connection's reply block until that connection's next call. Two
	// clients on one worker take turns: one makes a call — a Do, a
	// DoPipeline of one event, or a pipeline of three events (one call)
	// whose replies outgrow the block — while the other reads the replies
	// of its own last call before, during and after that turn. Every reply
	// must keep its exact bytes, with cap == len, until its connection's
	// next call. The files have odd sizes, so adjacent replies would share
	// a word if they were not aligned; the 40,000-byte file is larger than
	// a block. A reply held across Stop keeps its bytes and leaves the
	// stopped worker collectable.
	files := map[string]int{"/a": 1021, "/b": 1539, "/huge": 40000}
	want := make(map[string]string)
	for path, size := range files {
		body := strings.Repeat(path+"#", size/len(path+"#")+1)[:size]
		want[path] = "HTTP/1.1 200 OK\r\nServer: sdrad-httpd/1.23\r\nContent-Length: " + strconv.Itoa(size) +
			"\r\nConnection: keep-alive\r\n\r\n" + body
	}
	allVariants(t, func(t *testing.T, v Variant) {
		m, err := NewMaster(Config{Variant: v, Workers: 1, Files: files})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Stop)
		type kept struct {
			path string
			resp []byte
		}
		paths := [][]string{{"/a", "/b", "/a", "/b", "/b"}, {"/b", "/a", "/a", "/huge", "/a"}}
		turn := [2]chan struct{}{make(chan struct{}, 1), make(chan struct{}, 1)}
		turn[0] <- struct{}{}
		var wg sync.WaitGroup
		for g := range paths {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := m.Worker(0).NewConn()
				call := func(ps []string) []kept {
					held := make([]kept, 0, len(ps))
					if len(ps) == 1 {
						resp, closed, err := c.Do(FormatRequest(ps[0], true))
						if err != nil || closed {
							t.Errorf("Do: closed=%v err=%v", closed, err)
							return nil
						}
						return append(held, kept{ps[0], resp})
					}
					reqs := make([][]byte, len(ps))
					for i, path := range ps {
						reqs[i] = FormatRequest(path, true)
					}
					for i, res := range c.DoPipeline(reqs) {
						if res.Err != nil || res.Closed {
							t.Errorf("DoPipeline: %+v", res)
							return nil
						}
						held = append(held, kept{ps[i], res.Resp})
					}
					return held
				}
				ok := true
				check := func(when string, held []kept) {
					for _, k := range held {
						if ok && (string(k.resp) != want[k.path] || cap(k.resp) != len(k.resp)) {
							t.Errorf("reply to GET %s %s: %d bytes, cap %d, want %d bytes, cap == len",
								k.path, when, len(k.resp), cap(k.resp), len(want[k.path]))
							ok = false
						}
					}
				}
				var held []kept
				for r := 0; r < 6; r++ {
					long := make([]string, 3*m.cfg.MaxBatch)
					for i := range long {
						long[i] = paths[g][(r+i)%len(paths[g])]
					}
					for _, ps := range [][]string{{paths[g][r%len(paths[g])]}, paths[g], long} {
						<-turn[g]
						check("after the other client's call", held)
						held = call(ps)
						check("as delivered", held)
						turn[1-g] <- struct{}{}
						check("while the other client is served", held)
					}
				}
			}()
		}
		wg.Wait()

		held, worker := func() ([]byte, weak.Pointer[Worker]) {
			m, err := NewMaster(Config{Variant: v, Workers: 1, Files: files})
			if err != nil {
				t.Fatal(err)
			}
			resp, closed, err := m.Worker(0).NewConn().Do(FormatRequest("/a", true))
			if err != nil || closed {
				t.Fatalf("Do: closed=%v err=%v", closed, err)
			}
			m.Stop()
			return resp, weak.Make(m.Worker(0))
		}()
		runtime.GC()
		if worker.Value() != nil {
			t.Error("a reply held across Stop keeps the stopped worker reachable")
		}
		if string(held) != want["/a"] {
			t.Errorf("a reply held across Stop reads %q, want %q", held[:min(len(held), 24)], want["/a"][:24])
		}
	})
}

// BenchmarkKeepAliveGET times a warm keep-alive GET of a 1 KiB file
// through Conn.Do, both arms; allocs/op is the number the budget test pins.
func BenchmarkKeepAliveGET(b *testing.B) {
	for _, v := range []Variant{VariantVanilla, VariantSDRaD} {
		b.Run(v.String(), func(b *testing.B) {
			m, err := NewMaster(Config{Variant: v, Workers: 1, Files: map[string]int{"/1k": 1024}})
			if err != nil {
				b.Fatal(err)
			}
			defer m.Stop()
			c := m.Worker(0).NewConn()
			req := FormatRequest("/1k", true)
			b.ReportAllocs()
			for b.Loop() {
				if _, closed, err := c.Do(req); err != nil || closed {
					b.Fatalf("closed=%v err=%v", closed, err)
				}
			}
		})
	}
}

// heapInuse is the Go heap in use, read after a collection when collect is
// set.
func TestStoppedMasterIsCollectable(t *testing.T) {
	// As memcache's TestStoppedServerIsCollectable: after Stop and ONE
	// collection nothing keeps a worker's process or address space
	// reachable, and a reply the caller keeps across Stop keeps its bytes.
	allVariants(t, func(t *testing.T, v Variant) {
		var held, want []byte
		var procs []weak.Pointer[proc.Process]
		var spaces []weak.Pointer[mem.AddressSpace]
		func() {
			m, err := NewMaster(Config{Variant: v, Workers: 2, Files: map[string]int{"/1k": 1024, "/big": 128 << 10}})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < m.Workers(); i++ {
				p := m.Worker(i).Process()
				procs = append(procs, weak.Make(p))
				spaces = append(spaces, weak.Make(p.AddressSpace()))
			}
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					c := m.Worker(i).NewConn()
					req := FormatRequest("/1k", true)
					for n := 0; n < 5000; n++ {
						if _, closed, err := c.Do(req); err != nil || closed {
							t.Errorf("Do: closed=%v err=%v", closed, err)
							return
						}
					}
					for n := 0; n < 4; n++ {
						for _, r := range c.DoPipeline([][]byte{req, req, req, req, req, req}) {
							if r.Err != nil || r.Closed {
								t.Errorf("DoPipeline: %+v", r)
							}
						}
					}
				}()
			}
			wg.Wait()
			resp, closed, err := m.Worker(0).NewConn().Do(FormatRequest("/1k", true))
			if err != nil || closed {
				t.Fatalf("Do: closed=%v err=%v", closed, err)
			}
			held, want = resp, bytes.Clone(resp)
			m.Stop()
		}()
		runtime.GC()
		for i := range procs {
			if procs[i].Value() != nil || spaces[i].Value() != nil {
				t.Errorf("after Stop and one GC worker %d's process (live: %v) or address space (live: %v) is still reachable",
					i, procs[i].Value() != nil, spaces[i].Value() != nil)
			}
		}
		if !bytes.Equal(held, want) {
			t.Errorf("a reply held across Stop changed: %q", held[:min(len(held), 24)])
		}
	})
}

// TestRequestCountAgreesAcrossBuilds pins where a request is counted: a
// pipeline whose second request asks to close counts the two requests
// answered before the close on every build, not the ones behind it.
func TestRequestCountAgreesAcrossBuilds(t *testing.T) {
	allVariants(t, func(t *testing.T, v Variant) {
		rec := telemetry.New(telemetry.Options{})
		m, err := NewMaster(Config{Variant: v, Files: testFiles, Telemetry: rec})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Stop)
		get := FormatRequest("/index.html", true)
		res := m.Worker(0).NewConn().DoPipeline([][]byte{get, FormatRequest("/index.html", false), get, get})
		if !res[1].Closed || res[2].Err != ErrConnClosed || res[3].Err != ErrConnClosed {
			t.Fatalf("pipeline results: %+v", res)
		}
		if got := rec.Registry().SnapshotJSON()["sdrad_http_requests_total"]; got != int64(2) {
			t.Errorf("sdrad_http_requests_total = %v, want 2", got)
		}
	})
}

// heldRequests counts the requests the events and the batch-of-one
// storage of c's call record still reference (proc.Call keeps them
// unexported; reflect reads them).
func heldRequests(c *Conn) int {
	call := reflect.ValueOf(&c.call).Elem()
	n := call.FieldByName("req1").Index(0).Len()
	for _, name := range []string{"one", "evs"} {
		evs := call.FieldByName(name)
		for i := 0; i < evs.Len(); i++ {
			n += evs.Index(i).FieldByName("Reqs").Len()
		}
	}
	return n
}

func TestConnEventAcrossDoPipelineAndStop(t *testing.T) {
	// As memcache's test of the same name: every call of a Conn runs on
	// the one record the Conn carries. Two clients, one per worker,
	// alternate Do and a DoPipeline of two events and go on calling across
	// Stop: every reply is the page until the first down error, and from
	// then on every call reports ErrWorkerDown on the same record, which
	// each call leaves referencing no request. Once the clients let go of
	// their connections, the stopped workers are collected.
	allVariants(t, func(t *testing.T, v Variant) {
		get := FormatRequest("/index.html", true)
		workers := func() []weak.Pointer[Worker] {
			m, err := NewMaster(Config{Variant: v, Workers: 2, Files: testFiles})
			if err != nil {
				t.Fatal(err)
			}
			want := mustGet(t, m.Worker(0).NewConn(), "/index.html")
			gets := make([][]byte, m.Worker(0).cfg.MaxBatch+1)
			for j := range gets {
				gets[j] = get
			}
			warm := make(chan struct{}, 2)
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					c := m.Worker(i).NewConn()
					down := func(what string, resp []byte, closed bool, err error) bool {
						if err == nil {
							return false
						}
						if !errors.Is(err, ErrWorkerDown) || !closed || resp != nil {
							t.Errorf("%s: resp %q closed=%v err=%v, want the down error", what, resp, closed, err)
						}
						return true
					}
					for n := 0; ; n++ {
						if n == 50 {
							warm <- struct{}{}
						}
						resp, closed, err := c.Do(get)
						if down("get", resp, closed, err) {
							break
						}
						if string(resp) != want || closed {
							t.Errorf("get %d: %q closed=%v", n, resp, closed)
							return
						}
						res := c.DoPipeline(gets)
						if res[len(res)-1].Err != nil {
							break // the worker went down during the call
						}
						for _, r := range res {
							if string(r.Resp) != want || r.Closed {
								t.Errorf("pipelined get %d: %q closed=%v", n, r.Resp, r.Closed)
								return
							}
						}
					}
					for n := 0; n < 3; n++ {
						resp, closed, err := c.Do(get)
						if !down("get after Stop", resp, closed, err) {
							t.Errorf("get after Stop answered %q", resp)
						}
						if held := heldRequests(c); held != 0 {
							t.Errorf("after a Do the connection's record still holds %d requests", held)
						}
						for _, r := range c.DoPipeline(gets) {
							down("pipelined get after Stop", r.Resp, r.Closed, r.Err)
						}
						if held := heldRequests(c); held != 0 {
							t.Errorf("after a DoPipeline the connection's record still holds %d requests", held)
						}
					}
				}()
			}
			<-warm
			<-warm
			m.Stop()
			wg.Wait()
			return []weak.Pointer[Worker]{weak.Make(m.Worker(0)), weak.Make(m.Worker(1))}
		}()
		runtime.GC()
		for i, w := range workers {
			if w.Value() != nil {
				t.Errorf("stopped worker %d is still reachable once its clients dropped their connections", i)
			}
		}
	})
}

// TestMappedBytesAfterSeededLoad pins what a two-worker master maps on
// each build after a fixed load: 12 keep-alive connections per worker,
// opened in turn, each fetching a 1 KiB file 32 times. The worker heaps
// grow on demand, so the figures are what the load used, not a
// reservation: a change to them is a change in memory cost, to be
// explained.
func TestMappedBytesAfterSeededLoad(t *testing.T) {
	want := map[Variant]int64{
		VariantVanilla: 524288, // one heap step per worker
		VariantTLSF:    524288,
		// Per worker: a root step, the 80 KiB pool domain, the parser
		// domain's 64 KiB stack and 256 KiB heap, the monitor page.
		VariantSDRaD: 1351680,
	}
	allVariants(t, func(t *testing.T, v Variant) {
		m, err := NewMaster(Config{Variant: v, Workers: 2, Seed: 1, Files: map[string]int{"/1k": 1024}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Stop)
		for i := 0; i < 24; i++ {
			c := m.Worker(i % 2).NewConn()
			for k := 0; k < 32; k++ {
				if resp := mustGet(t, c, "/1k"); !strings.HasPrefix(resp, "HTTP/1.1 200 OK\r\n") {
					t.Fatalf("GET /1k: %q", resp[:min(len(resp), 40)])
				}
			}
		}
		var got int64
		for i := 0; i < m.Workers(); i++ {
			got += m.Worker(i).MappedBytes()
		}
		if got != want[v] {
			t.Errorf("%s master maps %d bytes (%.2f MiB) after the load, want %d", v, got, float64(got)/(1<<20), want[v])
		}
	})
}
