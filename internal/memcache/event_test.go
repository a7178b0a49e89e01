package memcache

import (
	"fmt"
	"testing"

	"sdrad/internal/proc"
)

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

func TestFreshServerTrapDiscardsOnlyItsOwnEvent(t *testing.T) {
	// A fresh server with no rewind behind it. Three events are staged
	// behind the parked worker — innocent, trap, innocent — and run as
	// three guard scopes: the trap rewinds once and closes only its own
	// connection, and both innocent writes commit. No guard scope spans
	// two events, so this holds from the first trap on.
	s, err := NewServer(Config{Variant: VariantSDRaD})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)

	// Three sequential Starts behind the parked worker: the backlog is in
	// the queue, in this order, before the worker serves any of it.
	release := parkWorker(t, s)
	before := s.NewConn().Start(FormatSet("b0", []byte("landed"), 0))
	evil := s.NewConn().Start(FormatBSet("atk", 16<<20, []byte("payload")))
	after := s.NewConn().Start(FormatSet("a0", []byte("landed"), 0))
	release()
	resBefore, resEvil, resAfter := before.Wait()[0], evil.Wait()[0], after.Wait()[0]

	for name, r := range map[string]PipelineResult{"ahead of": resBefore, "behind": resAfter} {
		if r.Err != nil || r.Closed || string(r.Resp) != "STORED\r\n" {
			t.Errorf("event %s the trap: %q closed=%v err=%v, want untouched", name, r.Resp, r.Closed, r.Err)
		}
	}
	if resEvil.Err != nil || !resEvil.Closed {
		t.Errorf("trap: closed=%v err=%v, want closed by the rewind", resEvil.Closed, resEvil.Err)
	}
	if got := s.Rewinds(); got != 1 {
		t.Errorf("rewinds = %d for the staged trap, want 1", got)
	}
	c := s.NewConn()
	for _, k := range []string{"b0", "a0"} {
		if val, _, ok := ParseGetValue(mustDo(t, c, FormatGet(k))); !ok || string(val) != "landed" {
			t.Errorf("bystander write %q = %q %v, want committed", k, val, ok)
		}
	}
}

func TestSchedChunkedPipelineInOrder(t *testing.T) {
	// Pipelines longer than MaxBatch are chunked client-side into
	// MaxBatch-sized events, each its own guard scope; ordering and
	// read-your-writes must be seamless across every chunk boundary.
	s, _ := startTelServer(t, VariantSDRaD, 1)
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
