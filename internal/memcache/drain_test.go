package memcache

import (
	"fmt"
	"testing"

	"sdrad/internal/proc"
)

// trapToFloor lands bset traps on fresh connections until worker 0's
// drain bound sits at 1 with a hot rewind window, and returns how many
// traps it took.
func trapToFloor(t *testing.T, s *Server) int {
	t.Helper()
	for n := 1; n <= 2*s.MaxBatch(); n++ {
		_, closed, err := s.NewConn().Do(FormatBSet("atk", 16<<20, []byte("payload")))
		if err != nil || !closed {
			t.Fatalf("trap %d: closed=%v err=%v", n, closed, err)
		}
		if snap := s.SchedSnapshots()[0]; snap.Bound == 1 && snap.WindowRewinds >= 4 {
			return n
		}
	}
	t.Fatalf("bound still %d after %d traps", s.SchedSnapshots()[0].Bound, 2*s.MaxBatch())
	return 0
}

// parkWorker blocks worker 0 of s inside a control event until the
// returned release function is called, so the test can stage a backlog
// in the worker's channel.
func parkWorker(t *testing.T, s *Server) (release func()) {
	t.Helper()
	parked := make(chan struct{})
	releaseCh := make(chan struct{})
	c := s.NewConn()
	go func() {
		_ = c.Inspect(func(*proc.Thread) error {
			close(parked)
			<-releaseCh
			return nil
		})
	}()
	<-parked
	return func() { close(releaseCh) }
}

func TestDefaultServerBoundsBlastRadiusUnderTrapBurst(t *testing.T) {
	// No scheduler configuration: the adaptive bound is the server's one
	// drain path. A trap burst walks it to 1, and while the rewind window
	// is hot a trap queued between two innocent connections' events is
	// drained alone — it discards only its own connection, where a full
	// MaxBatch drain would have taken all three into one guard scope.
	s, err := NewServer(Config{Variant: VariantSDRaD})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	if got := s.SchedSnapshots()[0].Bound; got != s.MaxBatch() {
		t.Fatalf("initial bound = %d, want the MaxBatch ceiling %d", got, s.MaxBatch())
	}
	trapToFloor(t, s)
	rewinds0 := s.Rewinds()

	// Three sequential Starts behind the parked worker: the backlog is in
	// the queue, in this order, before the worker drains any of it.
	release := parkWorker(t, s)
	// Larger than the bound: the first event of a round is still taken
	// whole.
	before := s.NewConn().Start(
		FormatSet("b0", []byte("landed"), 0),
		FormatSet("b1", []byte("landed"), 0),
		FormatSet("b2", []byte("landed"), 0),
	)
	evil := s.NewConn().Start(FormatBSet("atk", 16<<20, []byte("payload")))
	after := s.NewConn().Start(FormatSet("a0", []byte("landed"), 0))
	release()
	resBefore, resEvil, resAfter := before.Wait(), evil.Wait()[0], after.Wait()[0]

	for i, r := range resBefore {
		if r.Err != nil || r.Closed || string(r.Resp) != "STORED\r\n" {
			t.Errorf("event ahead of the trap, item %d: %q closed=%v err=%v", i, r.Resp, r.Closed, r.Err)
		}
	}
	if resEvil.Err != nil || !resEvil.Closed {
		t.Errorf("trap: closed=%v err=%v, want closed by the rewind", resEvil.Closed, resEvil.Err)
	}
	if resAfter.Err != nil || resAfter.Closed || string(resAfter.Resp) != "STORED\r\n" {
		t.Errorf("event behind the trap: %q closed=%v err=%v, want untouched", resAfter.Resp, resAfter.Closed, resAfter.Err)
	}
	if got := s.Rewinds() - rewinds0; got != 1 {
		t.Errorf("rewinds = %d for the staged trap, want 1", got)
	}
	c := s.NewConn()
	for _, k := range []string{"b0", "b1", "b2", "a0"} {
		if val, _, ok := ParseGetValue(mustDo(t, c, FormatGet(k))); !ok || string(val) != "landed" {
			t.Errorf("bystander write %q = %q %v, want committed", k, val, ok)
		}
	}
	if snap := s.SchedSnapshots()[0]; snap.Bound != 1 {
		t.Errorf("bound = %d with a hot rewind window, want pinned at 1", snap.Bound)
	}
}

func TestSchedChunkedPipelineInOrder(t *testing.T) {
	// Pipelines longer than MaxBatch are chunked client-side into
	// MaxBatch-sized events. With the bound pinned at 1 every chunk still
	// runs whole, as its own round; ordering and read-your-writes must be
	// seamless across every chunk boundary.
	s, _ := startTelServer(t, VariantSDRaD, 1)
	trapToFloor(t, s)
	c := s.NewConn()
	n := 3*s.MaxBatch() + 5
	var reqs [][]byte
	for i := 0; i < n; i++ {
		reqs = append(reqs, FormatSet(fmt.Sprintf("sspan-%03d", i), []byte(fmt.Sprintf("val-%03d", i)), 0))
	}
	for i := 0; i < n; i++ {
		reqs = append(reqs, FormatGet(fmt.Sprintf("sspan-%03d", i)))
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
}

func TestSchedMidBatchFaultRewindsOnceAndHalvesBound(t *testing.T) {
	// A mid-batch attack keeps the paper's fault semantics — one rewind,
	// exactly one forensics report, the whole batch discarded — and feeds
	// the controller: the rewind enters the window and the bound halves.
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
	if reports := rec.Forensics().Reports(); len(reports) != 1 {
		t.Fatalf("forensics reports = %d, want exactly 1", len(reports))
	}
	c := s.NewConn()
	if _, _, ok := ParseGetValue(mustDo(t, c, FormatGet("early"))); ok {
		t.Error("set earlier in the faulting batch leaked into the database")
	}
	val, _, ok := ParseGetValue(mustDo(t, good, FormatGet("persist")))
	if !ok || string(val) != "survives" {
		t.Errorf("bystander data after batch rewind = %q %v", val, ok)
	}
	snap := s.SchedSnapshots()[0]
	if snap.WindowRewinds != 1 {
		t.Errorf("controller window rewinds = %d, want 1", snap.WindowRewinds)
	}
	if snap.Bound > snap.MaxBatch/2 {
		t.Errorf("controller bound = %d after rewind, want <= %d", snap.Bound, snap.MaxBatch/2)
	}
}

func TestSchedSplitNeverSeparatesOneEventRun(t *testing.T) {
	// One pipelined event is one guard scope whatever the bound: with the
	// bound pinned at 1, a fault late in the event still discards every
	// earlier write of the same event, with one rewind and one report.
	s, rec := startTelServer(t, VariantSDRaD, 1)
	trapToFloor(t, s)
	rewinds0, reports0 := s.Rewinds(), len(rec.Forensics().Reports())

	var reqs [][]byte
	for i := 0; i < 6; i++ {
		reqs = append(reqs, FormatSet(fmt.Sprintf("run-%d", i), []byte("x"), 0))
	}
	reqs = append(reqs, FormatBSet("atk", 16<<20, []byte("payload")), FormatSet("run-6", []byte("x"), 0))
	for i, r := range s.NewConn().DoPipeline(reqs) {
		if !r.Closed {
			t.Errorf("item %d of the faulting event not closed", i)
		}
	}
	if got := s.Rewinds() - rewinds0; got != 1 {
		t.Errorf("rewinds = %d, want 1", got)
	}
	if got := len(rec.Forensics().Reports()) - reports0; got != 1 {
		t.Fatalf("forensics reports = %d, want exactly 1", got)
	}
	c := s.NewConn()
	for i := 0; i <= 6; i++ {
		if _, _, ok := ParseGetValue(mustDo(t, c, FormatGet(fmt.Sprintf("run-%d", i)))); ok {
			t.Errorf("write run-%d from the faulting event leaked (event was split)", i)
		}
	}
}

func TestNewConnPlacesRoundRobin(t *testing.T) {
	// NewConn is the round-robin cursor: the ledger's per-worker dialing
	// and the chaos audits redial until they land on a chosen worker.
	s := startServer(t, VariantSDRaD, 3)
	for i := 0; i < 7; i++ {
		if got := s.NewConn().WorkerIndex(); got != i%3 {
			t.Fatalf("conn %d pinned to worker %d, want %d", i, got, i%3)
		}
	}
}
