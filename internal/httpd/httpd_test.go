package httpd

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sdrad/internal/policy"
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
	// A warm keep-alive GET allocates the event that carries it (completion
	// signal embedded) and Request.Path, 2, on both variants: hardening adds
	// none. The reply is carved from the worker's reply block, a 32 KiB
	// allocation shared by every reply that fits in it, which rounds to
	// none per request.
	req := FormatRequest("/index.html", true)
	for _, v := range []Variant{VariantVanilla, VariantSDRaD} {
		c := startMaster(t, v, 1).Worker(0).NewConn()
		mustGet(t, c, "/index.html") // creates the parser domain and buffers
		if n := testing.AllocsPerRun(100, func() { _, _, _ = c.Do(req) }); n > 2 {
			t.Errorf("%v: warm Do allocates %.0f times, budget 2", v, n)
		}
	}
}

func TestRepliesStayTheCallers(t *testing.T) {
	// Two clients on one worker keep every reply they get, from Do and
	// from DoPipeline, while the worker carves the other client's replies
	// from the same blocks: each reply must still hold its own bytes at
	// the end, with cap == len. The files have odd sizes, so adjacent
	// replies would share a word if they were not aligned, and the race
	// detector would see the client reading its reply while the worker
	// writes the next one; the 40,000-byte file is larger than a block.
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
		paths := [][]string{{"/a", "/b", "/a", "/b", "/b"}, {"/b", "/a", "/a", "/huge", "/a"}}
		var wg sync.WaitGroup
		for g := range paths {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := m.Worker(0).NewConn()
				type kept struct {
					path string
					resp []byte
				}
				var all []kept
				check := func(k kept) bool {
					if string(k.resp) != want[k.path] || cap(k.resp) != len(k.resp) {
						t.Errorf("reply to GET %s: %d bytes, cap %d, want %d bytes, cap == len",
							k.path, len(k.resp), cap(k.resp), len(want[k.path]))
						return false
					}
					return true
				}
				for r := 0; r < 12; r++ {
					reqs := make([][]byte, len(paths[g]))
					for i, path := range paths[g] {
						resp, closed, err := c.Do(FormatRequest(path, true))
						if err != nil || closed {
							t.Errorf("Do: closed=%v err=%v", closed, err)
							return
						}
						all = append(all, kept{path, resp})
						if !check(all[len(all)-1]) {
							return
						}
						reqs[i] = FormatRequest(path, true)
					}
					for i, res := range c.DoPipeline(reqs) {
						if res.Err != nil || res.Closed {
							t.Errorf("DoPipeline: %+v", res)
							return
						}
						all = append(all, kept{paths[g][i], res.Resp})
						if !check(all[len(all)-1]) {
							return
						}
					}
				}
				total := 0
				for _, k := range all {
					if !check(k) {
						return
					}
					if k.path != "/huge" {
						total += len(k.resp)
					}
				}
				if total < 3*32<<10 {
					t.Errorf("client %d kept %d bytes of block-carved replies; the test no longer spans three blocks", g, total)
				}
			}()
		}
		wg.Wait()
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
func heapInuse(collect bool) uint64 {
	if collect {
		runtime.GC()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

func TestStoppedMasterIsCollectable(t *testing.T) {
	// As memcache's TestStoppedServerIsCollectable: after Stop and ONE
	// collection nothing keeps the worker processes (two heaps of ~21 MiB,
	// sized by the 128 KiB file) reachable, and a reply the caller keeps
	// across Stop keeps its bytes.
	allVariants(t, func(t *testing.T, v Variant) {
		before := heapInuse(true)
		var held, want []byte
		func() {
			m, err := NewMaster(Config{Variant: v, Workers: 2, Files: map[string]int{"/1k": 1024, "/big": 128 << 10}})
			if err != nil {
				t.Fatal(err)
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
			if inuse := heapInuse(false) - before; inuse < 24<<20 {
				t.Fatalf("a live master holds %d MiB of Go heap; the test no longer measures its memory", inuse>>20)
			}
			resp, closed, err := m.Worker(0).NewConn().Do(FormatRequest("/1k", true))
			if err != nil || closed {
				t.Fatalf("Do: closed=%v err=%v", closed, err)
			}
			held, want = resp, bytes.Clone(resp)
			m.Stop()
		}()
		if after := heapInuse(true); after > before+8<<20 {
			t.Errorf("HeapInuse %d MiB before the master, %d MiB after Stop and one GC: a stopped worker is still reachable",
				before>>20, after>>20)
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
