package memcache

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"sdrad/internal/core"
	"sdrad/internal/mem"
	"sdrad/internal/proc"
	"sdrad/internal/telemetry"
)

// startTelServer builds a server with a telemetry recorder attached, so
// tests can count forensics reports per rewind.
func startTelServer(t testing.TB, variant Variant, workers int) (*Server, *telemetry.Recorder) {
	t.Helper()
	rec := telemetry.New(telemetry.Options{})
	s, err := NewServer(Config{
		Variant:    variant,
		Workers:    workers,
		HashPower:  10,
		CacheBytes: 4 << 20,
		Telemetry:  rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s, rec
}

func TestPipelineOrderingAndReadYourWrites(t *testing.T) {
	// A pipeline's responses come back in request order, and a get later
	// in the batch observes a set earlier in the same batch (in the
	// hardened build that read goes through the deferred-op overlay).
	allVariants(t, func(t *testing.T, v Variant) {
		s := startServer(t, v, 1)
		c := s.NewConn()
		res := c.DoPipeline([][]byte{
			FormatSet("p", []byte("v1"), 0),
			FormatGet("p"),
			FormatSet("p", []byte("v2"), 0),
			FormatGet("p"),
			FormatGet("absent"),
		})
		if len(res) != 5 {
			t.Fatalf("results = %d", len(res))
		}
		for i, r := range res {
			if r.Err != nil || r.Closed {
				t.Fatalf("res[%d]: closed=%v err=%v", i, r.Closed, r.Err)
			}
		}
		if string(res[0].Resp) != "STORED\r\n" || string(res[2].Resp) != "STORED\r\n" {
			t.Errorf("set resps = %q %q", res[0].Resp, res[2].Resp)
		}
		if val, _, ok := ParseGetValue(res[1].Resp); !ok || string(val) != "v1" {
			t.Errorf("read-your-write 1 = %q", res[1].Resp)
		}
		if val, _, ok := ParseGetValue(res[3].Resp); !ok || string(val) != "v2" {
			t.Errorf("read-your-write 2 = %q", res[3].Resp)
		}
		if string(res[4].Resp) != "END\r\n" {
			t.Errorf("miss = %q", res[4].Resp)
		}
	})
}

func TestPipelineSpansMultipleBatches(t *testing.T) {
	// Pipelines longer than MaxBatch are chunked client-side; ordering
	// and results must be seamless across the chunk boundary.
	allVariants(t, func(t *testing.T, v Variant) {
		s := startServer(t, v, 1)
		c := s.NewConn()
		n := 3*s.MaxBatch() + 5
		var reqs [][]byte
		for i := 0; i < n; i++ {
			reqs = append(reqs, FormatSet(fmt.Sprintf("span-%03d", i), []byte(fmt.Sprintf("val-%03d", i)), 0))
		}
		for i := 0; i < n; i++ {
			reqs = append(reqs, FormatGet(fmt.Sprintf("span-%03d", i)))
		}
		res := c.DoPipeline(reqs)
		if len(res) != 2*n {
			t.Fatalf("results = %d, want %d", len(res), 2*n)
		}
		for i := 0; i < n; i++ {
			if r := res[i]; r.Err != nil || string(r.Resp) != "STORED\r\n" {
				t.Fatalf("set %d: %q err=%v", i, r.Resp, r.Err)
			}
			val, _, ok := ParseGetValue(res[n+i].Resp)
			if !ok || string(val) != fmt.Sprintf("val-%03d", i) {
				t.Fatalf("get %d = %q", i, res[n+i].Resp)
			}
		}
	})
}

func TestPipelineBatchedVsUnbatchedBitIdentical(t *testing.T) {
	// The same request sequence must produce byte-identical responses
	// whether issued one Do at a time or as one pipeline.
	allVariants(t, func(t *testing.T, v Variant) {
		mkReqs := func() [][]byte {
			return [][]byte{
				FormatSet("a", []byte("alpha"), 3),
				FormatGet("a"),
				FormatSet("a", []byte("beta"), 4),
				FormatGet("a"),
				FormatDelete("a"),
				FormatGet("a"),
				FormatDelete("a"),
				[]byte("bogus nonsense\r\n"),
				FormatSet("b", []byte("gamma"), 0),
				FormatGet("b"),
			}
		}
		s1 := startServer(t, v, 1)
		c1 := s1.NewConn()
		var unbatched [][]byte
		for _, req := range mkReqs() {
			resp, closed, err := c1.Do(req)
			if err != nil || closed {
				t.Fatalf("Do(%q): closed=%v err=%v", req, closed, err)
			}
			unbatched = append(unbatched, resp)
		}
		s2 := startServer(t, v, 1)
		res := s2.NewConn().DoPipeline(mkReqs())
		for i, r := range res {
			if r.Err != nil || r.Closed {
				t.Fatalf("pipeline res[%d]: closed=%v err=%v", i, r.Closed, r.Err)
			}
			if !bytes.Equal(r.Resp, unbatched[i]) {
				t.Errorf("res[%d]: batched %q, unbatched %q", i, r.Resp, unbatched[i])
			}
		}
	})
}

func TestPipelineQuitMidBatch(t *testing.T) {
	// quit mid-pipeline: the batch up to the quit applies (normal exit,
	// deferred ops land), the quit closes the connection, and requests
	// behind it report closed — exactly the unbatched semantics.
	allVariants(t, func(t *testing.T, v Variant) {
		s := startServer(t, v, 1)
		c := s.NewConn()
		res := c.DoPipeline([][]byte{
			FormatSet("q", []byte("kept"), 0),
			[]byte("quit\r\n"),
			FormatGet("q"),
		})
		if res[0].Err != nil || res[0].Closed || string(res[0].Resp) != "STORED\r\n" {
			t.Fatalf("set before quit: %q closed=%v err=%v", res[0].Resp, res[0].Closed, res[0].Err)
		}
		if !res[1].Closed {
			t.Error("quit did not close the connection")
		}
		if !res[2].Closed || !errors.Is(res[2].Err, ErrConnClosed) {
			t.Errorf("request behind quit: closed=%v err=%v", res[2].Closed, res[2].Err)
		}
		// The set before the quit was applied.
		c2 := s.NewConn()
		val, _, ok := ParseGetValue(mustDo(t, c2, FormatGet("q")))
		if !ok || string(val) != "kept" {
			t.Errorf("set before quit lost: %q %v", val, ok)
		}
	})
}

func TestPipelineFaultMidBatchDiscardsWholeBatch(t *testing.T) {
	// Paper semantics under batching: a trap anywhere in the batch rewinds
	// ONCE, the entire in-flight batch is discarded (earlier items' writes
	// never reach the database), exactly the batch's connections close,
	// and forensics synthesizes exactly one report.
	s, rec := startTelServer(t, VariantSDRaD, 1)
	good := s.NewConn()
	mustDo(t, good, FormatSet("persist", []byte("survives"), 0))

	evil := s.NewConn()
	res := evil.DoPipeline([][]byte{
		FormatSet("early", []byte("never-lands"), 0),
		FormatBSet("atk", 16<<20, []byte("payload")),
		FormatSet("late", []byte("never-runs"), 0),
	})
	for i, r := range res {
		if !r.Closed {
			t.Errorf("batch item %d not reported closed after rewind", i)
		}
	}
	if got := s.Rewinds(); got != 1 {
		t.Errorf("rewinds = %d, want 1 for the whole batch", got)
	}
	if crashed, cause := s.Crashed(); crashed {
		t.Fatalf("hardened server crashed: %v", cause)
	}
	reports := rec.Forensics().Reports()
	if len(reports) != 1 {
		t.Fatalf("forensics reports = %d, want exactly 1", len(reports))
	}
	rep := reports[0]
	if rep.FailedUDI != int(eventUDI) {
		t.Errorf("report failed UDI = %d, want %d", rep.FailedUDI, int(eventUDI))
	}
	if rep.SiCode == 0 || rep.SignalName == "" {
		t.Errorf("report missing fault identity: %+v", rep)
	}

	// The whole batch was discarded: neither the set before the trap nor
	// the one behind it is visible.
	c := s.NewConn()
	if _, _, ok := ParseGetValue(mustDo(t, c, FormatGet("early"))); ok {
		t.Error("set earlier in the faulting batch leaked into the database")
	}
	if _, _, ok := ParseGetValue(mustDo(t, c, FormatGet("late"))); ok {
		t.Error("set behind the trap leaked into the database")
	}
	// Connections outside the batch are untouched; their data is intact.
	val, _, ok := ParseGetValue(mustDo(t, good, FormatGet("persist")))
	if !ok || string(val) != "survives" {
		t.Errorf("bystander data after batch rewind = %q %v", val, ok)
	}
	// Storage invariants hold after the rewind.
	if err := good.Inspect(func(th *proc.Thread) error {
		return s.Storage().AuditShards(th.CPU())
	}); err != nil {
		t.Errorf("shard audit after batch rewind: %v", err)
	}
}

func TestBatchedVsUnbatchedFaultIdentical(t *testing.T) {
	// The fault a mid-batch attack produces must be the same fault the
	// unbatched flow produces: same signal, same si_code, same failing
	// domain, one forensics report each. (Fault addresses differ — the
	// batch stages buffers at different offsets — and are not compared.)
	s1, rec1 := startTelServer(t, VariantSDRaD, 1)
	evil1 := s1.NewConn()
	_, closed, err := evil1.Do(FormatBSet("atk", 16<<20, []byte("payload")))
	if err != nil || !closed {
		t.Fatalf("unbatched attack: closed=%v err=%v", closed, err)
	}

	s2, rec2 := startTelServer(t, VariantSDRaD, 1)
	evil2 := s2.NewConn()
	res := evil2.DoPipeline([][]byte{
		FormatSet("x", []byte("1"), 0),
		FormatBSet("atk", 16<<20, []byte("payload")),
		FormatSet("y", []byte("2"), 0),
	})
	if !res[1].Closed {
		t.Fatal("batched attack not absorbed")
	}

	r1, r2 := rec1.Forensics().Reports(), rec2.Forensics().Reports()
	if len(r1) != 1 || len(r2) != 1 {
		t.Fatalf("forensics reports = %d unbatched, %d batched; want 1 and 1", len(r1), len(r2))
	}
	a, b := r1[0], r2[0]
	if a.Signal != b.Signal || a.SignalName != b.SignalName {
		t.Errorf("signal: unbatched %d(%s), batched %d(%s)", a.Signal, a.SignalName, b.Signal, b.SignalName)
	}
	if a.SiCode != b.SiCode || a.SiCodeName != b.SiCodeName {
		t.Errorf("si_code: unbatched %d(%s), batched %d(%s)", a.SiCode, a.SiCodeName, b.SiCode, b.SiCodeName)
	}
	if a.FailedUDI != b.FailedUDI {
		t.Errorf("failed UDI: unbatched %d, batched %d", a.FailedUDI, b.FailedUDI)
	}
	if len(a.DomainStack) != len(b.DomainStack) {
		t.Errorf("domain stack depth: unbatched %v, batched %v", a.DomainStack, b.DomainStack)
	}
}

func TestPipelineFaultSparesOtherBatchlessConns(t *testing.T) {
	// Two connections pipeline into the same worker; the batch that traps
	// closes only its own connections. A connection whose event was parked
	// (not drained into the faulting batch) survives.
	s := startServer(t, VariantSDRaD, 1)
	evil := s.NewConn()
	res := evil.DoPipeline([][]byte{
		FormatSet("e1", []byte("x"), 0),
		FormatBSet("atk", 16<<20, []byte("payload")),
	})
	if !res[0].Closed || !res[1].Closed {
		t.Fatalf("attack batch results: %+v", res)
	}
	// A fresh connection on the same (only) worker keeps working.
	c := s.NewConn()
	mustDo(t, c, FormatSet("after", []byte("ok"), 0))
	if val, _, ok := ParseGetValue(mustDo(t, c, FormatGet("after"))); !ok || string(val) != "ok" {
		t.Errorf("post-attack set/get = %q %v", val, ok)
	}
	if got := s.Rewinds(); got != 1 {
		t.Errorf("rewinds = %d", got)
	}
}

// borrowOps is the borrow-lifetime sequence: every store and delete of k
// is followed by a read that must see it, through the deferred overlay
// while the batch is open and from the database afterwards.
func borrowOps() (v1, v2 []byte, reqs [][]byte) {
	v1 = bytes.Repeat([]byte("one-"), 256)
	v2 = bytes.Repeat([]byte("2"), 700)
	return v1, v2, [][]byte{
		FormatSet("k", v1, 5),
		FormatGet("k"),
		FormatSet("k", v2, 6),
		FormatGet("k"),
		FormatDelete("k"),
		FormatGet("k"),
	}
}

// storedValue reads key straight from the database on the worker thread.
func storedValue(t *testing.T, s *Server, c *Conn, key string) (val []byte, flags uint32, ok bool) {
	t.Helper()
	if err := c.Inspect(func(th *proc.Thread) error {
		v, f, found := s.Storage().Get(th.CPU(), []byte(key))
		val, flags, ok = append([]byte(nil), v...), f, found
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return val, flags, ok
}

func TestBorrowedStoresOnePipelinedEventMatchesVanilla(t *testing.T) {
	// The hardened arm queues every store and delete by reference into the
	// slot read buffers; replies and final database contents must be
	// byte-identical to the vanilla arm, which stores directly.
	_, v2, reqs := borrowOps()
	// A surviving store behind the sequence, so "final contents" compares
	// a value that travelled the borrowed path end to end.
	reqs = append(reqs, FormatSet("k", v2, 7), FormatSet("j", []byte("kept"), 1))
	run := func(v Variant) (resps [][]byte, s *Server, c *Conn) {
		s = startServer(t, v, 1)
		c = s.NewConn()
		for i, r := range c.DoPipeline(reqs) {
			if r.Err != nil || r.Closed {
				t.Fatalf("%v res[%d]: closed=%v err=%v", v, i, r.Closed, r.Err)
			}
			resps = append(resps, r.Resp)
		}
		return resps, s, c
	}
	want, vs, vc := run(VariantVanilla)
	got, hs, hc := run(VariantSDRaD)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("reply %d: hardened %q, vanilla %q", i, got[i], want[i])
		}
	}
	for _, key := range []string{"k", "j", "absent"} {
		wv, wf, wok := storedValue(t, vs, vc, key)
		gv, gf, gok := storedValue(t, hs, hc, key)
		if wok != gok || wf != gf || !bytes.Equal(wv, gv) {
			t.Errorf("stored %q: hardened (%d bytes, flags %d, %v), vanilla (%d bytes, flags %d, %v)",
				key, len(gv), gf, gok, len(wv), wf, wok)
		}
	}
	if ws, gs := vs.StorageStats(), hs.StorageStats(); ws.Items != gs.Items || ws.Bytes != gs.Bytes {
		t.Errorf("database size: hardened %d items/%d bytes, vanilla %d/%d", gs.Items, gs.Bytes, ws.Items, ws.Bytes)
	}
}

func TestBorrowedStoresAcrossTwoConnsInOneRoundMatchVanilla(t *testing.T) {
	// The same ops split over two connections' events, staged behind a
	// parked worker so one drain round — one guard scope, one slot per
	// request, one apply — takes both: the second connection's reads and
	// delete see the first's stores only through the deferred overlay.
	_, _, reqs := borrowOps()
	run := func(v Variant) (resps [][]byte) {
		s := startServer(t, v, 1)
		a, b := s.NewConn(), s.NewConn()
		release := parkWorker(t, s)
		startA, startB := a.Start(reqs[:3]...), b.Start(reqs[3:]...)
		release()
		for i, r := range append(startA.Wait(), startB.Wait()...) {
			if r.Err != nil || r.Closed {
				t.Fatalf("%v res[%d]: closed=%v err=%v", v, i, r.Closed, r.Err)
			}
			resps = append(resps, r.Resp)
		}
		if v == VariantSDRaD {
			if got := s.Library().Stats().DomainSwitches.Load(); got != 2 {
				t.Errorf("domain switches = %d, want 2: the two events did not share one guard scope", got)
			}
		}
		if _, _, ok := storedValue(t, s, a, "k"); ok {
			t.Errorf("%v: k still stored after the delete", v)
		}
		return resps
	}
	want, got := run(VariantVanilla), run(VariantSDRaD)
	if len(got) != len(reqs) {
		t.Fatalf("replies = %d, want %d", len(got), len(reqs))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("reply %d: hardened %q, vanilla %q", i, got[i], want[i])
		}
	}
}

func TestTrappedBatchDropsBorrowedStoresNextBatchApplies(t *testing.T) {
	// A set sharing a batch with a bset trap is not applied — its borrowed
	// windows die with the discarded domain and the pending list is zeroed,
	// not merely truncated — and the next batch's stores land.
	s := startServer(t, VariantSDRaD, 1)
	evil := s.NewConn()
	res := evil.DoPipeline([][]byte{
		FormatSet("doomed", bytes.Repeat([]byte("d"), 512), 0),
		FormatBSet("atk", 16<<20, []byte("payload")),
	})
	if !res[0].Closed || !res[1].Closed {
		t.Fatalf("attack batch results: %+v", res)
	}
	c := s.NewConn()
	if err := c.Inspect(func(*proc.Thread) error {
		p := s.workers[0].dops.pending
		if len(p) != 0 {
			return fmt.Errorf("%d deferred ops survived the rewind", len(p))
		}
		for i, op := range p[:cap(p)] {
			if op.key != nil || op.value != nil {
				return fmt.Errorf("dropped op %d still references its borrowed window", i)
			}
		}
		return nil
	}); err != nil {
		t.Error(err)
	}
	next := c.DoPipeline([][]byte{
		FormatSet("landed-1", []byte("one"), 0),
		FormatSet("landed-2", []byte("two"), 0),
	})
	for i, r := range next {
		if r.Err != nil || r.Closed || string(r.Resp) != "STORED\r\n" {
			t.Fatalf("next batch item %d: %q closed=%v err=%v", i, r.Resp, r.Closed, r.Err)
		}
	}
	if _, _, ok := storedValue(t, s, c, "doomed"); ok {
		t.Error("set sharing a batch with the trap was applied")
	}
	for key, want := range map[string]string{"landed-1": "one", "landed-2": "two"} {
		if val, _, ok := storedValue(t, s, c, key); !ok || string(val) != want {
			t.Errorf("next batch's %q = %q %v, want %q", key, val, ok, want)
		}
	}
}

// armInDomain installs a one-shot injector on th that turns the
// countdown-th access made inside the event domain into a PKU fault (the
// monitor's ledger page excepted), or never fires with countdown 0.
func armInDomain(s *Server, th *proc.Thread, countdown int) {
	lib := s.Library()
	monitorPage := lib.MonitorBase() &^ (mem.PageSize - 1)
	n := 0
	th.CPU().SetFaultInjector(func(addr mem.Addr, kind mem.AccessKind) *mem.Fault {
		if lib.Current(th) == core.RootUDI || addr&^(mem.PageSize-1) == monitorPage {
			return nil
		}
		if n++; n != countdown {
			return nil
		}
		return &mem.Fault{Kind: kind, Code: mem.CodePkuErr, PKey: lib.RootKey()}
	})
}

func TestStoreParsedUnderArmedInjectorFaultsWhereItAlwaysDid(t *testing.T) {
	// An armed injector refuses every lease, so the parser takes the
	// checked accessors and the value is a checked copy, not a borrow. A
	// hardened set makes exactly five checked accesses inside the domain;
	// each must trap with the same si_code at the same address as before
	// stores were borrowed: the magic-byte peek and the line scan at the
	// slot read buffer, the body read at the body offset, the reply write
	// and the reply capture at the slot write buffer.
	req := FormatSet("victim", bytes.Repeat([]byte("x"), 300), 0)
	bodyOff := bytes.Index(req, crlfBytes) + 2
	for countdown := 1; countdown <= 5; countdown++ {
		s, rec := startTelServer(t, VariantSDRaD, 1)
		c := s.NewConn()
		mustDo(t, c, FormatSet("warm", []byte("up"), 0))
		var want mem.Addr
		if err := c.Inspect(func(th *proc.Thread) error {
			slot := s.workers[0].slots[0]
			want = [...]mem.Addr{slot.rbuf, slot.rbuf, slot.rbuf + mem.Addr(bodyOff), slot.wbuf, slot.wbuf}[countdown-1]
			armInDomain(s, th, countdown)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		_, closed, err := c.Do(req)
		if err != nil || !closed {
			t.Fatalf("countdown %d: closed=%v err=%v, want closed by the rewind", countdown, closed, err)
		}
		reports := rec.Forensics().Reports()
		if len(reports) != 1 {
			t.Fatalf("countdown %d: forensics reports = %d, want 1", countdown, len(reports))
		}
		if rep := reports[0]; rep.SiCode != int(mem.CodePkuErr) || rep.Addr != uint64(want) || !rep.Injected {
			t.Errorf("countdown %d: fault si_code=%d addr=0x%x injected=%v, want si_code=%d addr=0x%x",
				countdown, rep.SiCode, rep.Addr, rep.Injected, int(mem.CodePkuErr), uint64(want))
		}
		if _, _, ok := storedValue(t, s, s.NewConn(), "victim"); ok {
			t.Errorf("countdown %d: the faulted set was applied", countdown)
		}
	}
}

func TestRefusedLeaseAtApplyFailsBatchClosed(t *testing.T) {
	// An injector that stays armed through Exit refuses the slot's read
	// lease when the apply re-validates it: the batch fails closed —
	// nothing applied, every live item reports the error — and the server
	// serves the next batch once the injector is gone.
	s := startServer(t, VariantSDRaD, 1)
	c := s.NewConn()
	mustDo(t, c, FormatSet("warm", []byte("up"), 0))
	if err := c.Inspect(func(th *proc.Thread) error {
		armInDomain(s, th, 0)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	res := c.DoPipeline([][]byte{
		FormatSet("refused", []byte("never-lands"), 0),
		FormatGet("warm"),
	})
	for i, r := range res {
		if !errors.Is(r.Err, errBorrowRevoked) {
			t.Errorf("item %d: err = %v, want errBorrowRevoked", i, r.Err)
		}
	}
	if err := c.Inspect(func(th *proc.Thread) error {
		th.CPU().SetFaultInjector(nil)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := storedValue(t, s, c, "refused"); ok {
		t.Error("store applied although its slot lease was refused")
	}
	mustDo(t, c, FormatSet("after", []byte("ok"), 0))
	if val, _, ok := storedValue(t, s, c, "after"); !ok || string(val) != "ok" {
		t.Errorf("store after the refusal = %q %v", val, ok)
	}
	if got := s.Rewinds(); got != 0 {
		t.Errorf("rewinds = %d, want 0: a refusal is an error, not a trap", got)
	}
}

func TestIncrReadsValueBorrowedEarlierInBatch(t *testing.T) {
	// incr parses the value a set earlier in the same batch queued by
	// reference, and queues its own result as a private slice.
	allVariants(t, func(t *testing.T, v Variant) {
		s := startServer(t, v, 1)
		c := s.NewConn()
		res := c.DoPipeline([][]byte{
			FormatSet("n", []byte("41"), 9),
			[]byte("incr n 1\r\n"),
			FormatGet("n"),
			[]byte("decr n 40\r\n"),
		})
		for i, r := range res {
			if r.Err != nil || r.Closed {
				t.Fatalf("res[%d]: closed=%v err=%v", i, r.Closed, r.Err)
			}
		}
		if string(res[1].Resp) != "42\r\n" || string(res[3].Resp) != "2\r\n" {
			t.Errorf("incr/decr replies = %q %q, want 42 and 2", res[1].Resp, res[3].Resp)
		}
		if val, flags, ok := ParseGetValue(res[2].Resp); !ok || string(val) != "42" || flags != 9 {
			t.Errorf("get after incr = %q flags=%d %v", val, flags, ok)
		}
		if val, flags, ok := storedValue(t, s, c, "n"); !ok || string(val) != "2" || flags != 9 {
			t.Errorf("stored n = %q flags=%d %v, want 2 with the set's flags", val, flags, ok)
		}
	})
}

func TestHardenedInlineSetAllocatesNoMoreThanVanilla(t *testing.T) {
	// Deferred stores borrow and the guard scope allocates nothing, so
	// hardening adds no Go-heap allocation to a set: what remains (reply
	// delivery) is shared by both arms.
	req := FormatSet("key", bytes.Repeat([]byte("v"), 1024), 0)
	allocs := func(v Variant) (n float64) {
		s := startServer(t, v, 1)
		if err := s.RunInline("allocs", func(newConn func() *Conn, do InlineDo) error {
			conn := newConn()
			if _, _, err := do(conn, req); err != nil { // creates domain and slots
				return err
			}
			n = testing.AllocsPerRun(100, func() { _, _, _ = do(conn, req) })
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if vanilla, hardened := allocs(VariantVanilla), allocs(VariantSDRaD); hardened > vanilla {
		t.Errorf("hardened set allocates %.0f times, vanilla %.0f", hardened, vanilla)
	}
}

func TestHandOffAllocationBudget(t *testing.T) {
	// A warm request allocates what it returns and the event that carries
	// it: Do is the event (completion signal embedded) and the reply, 2;
	// DoPipeline of four gets is the handle, its events, its results and
	// four replies, 7.
	get := FormatGet("k")
	burst := [][]byte{get, get, get, get}
	for _, v := range []Variant{VariantVanilla, VariantSDRaD} {
		c := startServer(t, v, 1).NewConn()
		mustDo(t, c, FormatSet("k", []byte("value"), 0))
		c.DoPipeline(burst) // creates the domain slots a burst of four uses
		do := testing.AllocsPerRun(100, func() { _, _, _ = c.Do(get) })
		pipe := testing.AllocsPerRun(100, func() { c.DoPipeline(burst) })
		if do > 3 || pipe > 10 {
			t.Errorf("%v: warm Do allocates %.0f times (budget 3), DoPipeline of 4 gets %.0f (budget 10)", v, do, pipe)
		}
	}
}
