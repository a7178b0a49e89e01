package proc

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

var errToyDown = errors.New("toy: worker down")

// toyWorker serves a mailbox the way both servers do: it answers each
// request with "<conn>:<request>" and records the size of every event it
// took. The request "trap" is a memory-safety violation with no recovery
// point: it kills the process with its event still in the worker's hands.
type toyWorker struct {
	mb *Mailbox[int]
	// echo answers with the request itself and records nothing: the
	// benchmark's worker allocates nothing and writes no shared record.
	echo   bool
	chunks []int // owned by the worker thread; read through Inspect
}

func newToy(queue, maxBatch int) (*Process, *toyWorker) {
	p := NewProcess("toy")
	return p, addToy(p, queue, maxBatch)
}

// addToy gives p one more worker with its own mailbox.
func addToy(p *Process, queue, maxBatch int) *toyWorker {
	return &toyWorker{mb: NewMailbox[int](p, queue, maxBatch, errToyDown)}
}

func (w *toyWorker) run(t *Thread) error {
	w.mb.Serve(t, func(ev *Event[int]) {
		if !w.echo {
			w.chunks = append(w.chunks, len(ev.Reqs))
		}
		for i, req := range ev.Reqs {
			switch {
			case string(req) == "trap":
				t.CPU().WriteU8(0xBAD0000, 1) // unmapped
			case w.echo:
				ev.Res[i].Resp = req
			default:
				ev.Res[i].Resp = []byte(fmt.Sprintf("%d:%s", ev.Conn, req))
			}
		}
	})
	return nil
}

// conn returns a call record bound to the worker's mailbox for the
// connection numbered id, as a server's NewConn binds its Conn's.
func (w *toyWorker) conn(id int) *Call[int] {
	c := new(Call[int])
	c.Bind(w.mb, id)
	return c
}

// parked parks the worker inside an Inspect and returns once it is there,
// so that sequential Starts stage an exact backlog behind it; release lets
// the worker go on.
func (w *toyWorker) parked() (release func()) {
	in, out := make(chan struct{}), make(chan struct{})
	go func() { _ = w.mb.Inspect(func(*Thread) error { close(in); <-out; return nil }) }()
	<-in
	return func() { close(out) }
}

func numbered(n int) [][]byte {
	reqs := make([][]byte, n)
	for i := range reqs {
		reqs[i] = []byte(fmt.Sprintf("req-%02d", i))
	}
	return reqs
}

// check asserts res holds one result per request of reqs, in order: the
// toy worker's answer on conn, or with down set the down error.
func check(t *testing.T, res []Result, conn int, reqs [][]byte, down bool) {
	t.Helper()
	if len(res) != len(reqs) {
		t.Fatalf("conn %d: %d results, want %d", conn, len(res), len(reqs))
	}
	for i, r := range res {
		want := Result{Resp: []byte(fmt.Sprintf("%d:%s", conn, reqs[i]))}
		if down {
			want = Result{Closed: true, Err: errToyDown}
		}
		if string(r.Resp) != string(want.Resp) || r.Closed != want.Closed || !errors.Is(r.Err, want.Err) {
			t.Errorf("conn %d result %d = %q closed=%v err=%v, want %q closed=%v err=%v",
				conn, i, r.Resp, r.Closed, r.Err, want.Resp, want.Closed, want.Err)
		}
	}
}

func TestStartReturnsOnceQueued(t *testing.T) {
	// No worker is draining: after N sequential starts exactly N events sit
	// in the inbox, and a worker spawned afterwards serves them all.
	p, w := newToy(8, 4)
	defer p.Shutdown()
	var pending []*Call[int]
	for i := 0; i < 5; i++ {
		pending = append(pending, w.conn(i).Start(numbered(1)))
		if got := len(w.mb.ch); got != i+1 {
			t.Fatalf("after %d starts the inbox holds %d events", i+1, got)
		}
	}
	p.Spawn("worker", w.run)
	for i, h := range pending {
		check(t, h.Wait(), i, numbered(1), false)
	}
}

func TestPipelineChunkedInRequestOrderAndHandleSpent(t *testing.T) {
	p, w := newToy(0, 4)
	defer p.Shutdown()
	p.Spawn("worker", w.run)
	h := w.conn(7).Start(numbered(11))
	check(t, h.Wait(), 7, numbered(11), false)
	var chunks []int
	if err := w.mb.Inspect(func(*Thread) error { chunks = append(chunks, w.chunks...); return nil }); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(chunks) != "[4 4 3]" {
		t.Errorf("events taken = %v, want the pipeline cut at maxBatch: [4 4 3]", chunks)
	}
	// Wait ended the call. The worker is alive and idle, so a second Wait
	// that waited on anything would block here for good. The record takes
	// its next call.
	if res := h.Wait(); res != nil {
		t.Errorf("second Wait returned %d results, want nil", len(res))
	}
	resp, closed, err := h.Do([]byte("solo"))
	check(t, []Result{{resp, closed, err}}, 7, [][]byte{[]byte("solo")}, false)
}

func TestDownProcessFailsEveryRequestWithoutHanging(t *testing.T) {
	t.Run("already down", func(t *testing.T) {
		p, w := newToy(0, 4)
		p.Shutdown()
		c := w.conn(1)
		resp, closed, err := c.Do([]byte("x"))
		check(t, []Result{{resp, closed, err}}, 1, numbered(1), true)
		if err := w.mb.Inspect(func(*Thread) error { return nil }); !errors.Is(err, errToyDown) {
			t.Errorf("Inspect on a dead process: %v", err)
		}
		check(t, c.Start(numbered(9)).Wait(), 1, numbered(9), true)
	})
	t.Run("dies between start and wait", func(t *testing.T) {
		// Three events are queued and nobody serves them.
		p, w := newToy(4, 4)
		h := w.conn(1).Start(numbered(10))
		p.Shutdown()
		check(t, h.Wait(), 1, numbered(10), true)
	})
	t.Run("dies in a chunk after a served call", func(t *testing.T) {
		// A served pipeline fills the record's results; the next call on
		// the record is chunked, and its second event traps after
		// answering its first request: the first chunk is answered, and
		// from the second on every request reports down, with nothing
		// left of the last call.
		p, w := newToy(4, 2)
		p.Spawn("worker", w.run)
		c := w.conn(5)
		check(t, c.Start(numbered(6)).Wait(), 5, numbered(6), false)
		reqs := [][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("trap"), []byte("e"), []byte("f")}
		res := c.Start(reqs).Wait()
		check(t, res[:2], 5, reqs[:2], false)
		check(t, res[2:], 5, reqs[2:], true)
		waitOrFail(t, p, "after the trap")
	})
}

func TestWorkerDyingWithEventsInHandFailsThemAfterTermination(t *testing.T) {
	// Three single-request events are staged; the worker traps on the
	// first, second or third, holding that one with the rest queued
	// behind. The events ahead of the trap are answered; the one in hand
	// and everything behind it get the down error (a second end of one
	// event would panic in its completion signal, a missing one would hang
	// its client here), and none of them before the process reports itself
	// dead.
	for trapAt := 0; trapAt < 3; trapAt++ {
		p, w := newToy(4, 4)
		p.Spawn("worker", w.run)
		release := w.parked()
		var pending []*Call[int]
		for i := 0; i < 3; i++ {
			req := []byte("ok")
			if i == trapAt {
				req = []byte("trap")
			}
			pending = append(pending, w.conn(i).Start([][]byte{req}))
		}
		var wg sync.WaitGroup
		var aliveAtReturn atomic.Int32
		results := make([][]Result, len(pending))
		for i, h := range pending {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[i] = h.Wait()
				if i >= trapAt && !p.Killed() {
					aliveAtReturn.Add(1)
				}
			}()
		}
		release()
		wg.Wait()
		for i, res := range results {
			check(t, res, i, [][]byte{[]byte("ok")}, i >= trapAt)
		}
		if n := aliveAtReturn.Load(); n != 0 {
			t.Errorf("trap at %d: %d clients saw the down error before the process was marked terminated", trapAt, n)
		}
		p.Wait()
		var crash *CrashError
		if !errors.As(p.ExitError(), &crash) {
			t.Errorf("trap at %d: exit error %v, want the crash", trapAt, p.ExitError())
		}
	}
}

func TestDoAfterTerminateReportsDownWithLiveSibling(t *testing.T) {
	// Terminate has returned; the sibling worker is alive, idle, and may
	// not have noticed yet. It must not serve the call.
	for i := 0; i < 1000; i++ {
		p, a := newToy(4, 4)
		b := addToy(p, 4, 4)
		p.Spawn("a", a.run)
		p.Spawn("b", b.run)
		ca, cb := a.conn(1), b.conn(1)
		for _, c := range []*Call[int]{ca, cb} {
			if _, _, err := c.Do([]byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		p.Terminate(errors.New("sibling crashed"))
		if resp, closed, err := cb.Do([]byte("late")); !errors.Is(err, errToyDown) || !closed {
			t.Fatalf("iteration %d: Do after Terminate = %q closed=%v err=%v, want the down error", i, resp, closed, err)
		}
		p.Wait()
	}
}

func TestStartRacingTerminateEndsEveryEventOnce(t *testing.T) {
	// Clients keep starting pipelines, each on its own record, while
	// another goroutine terminates the process. Every Wait returns (no
	// event is left unended), a served prefix is intact and everything
	// behind the first failure reports down, and the worker and the
	// sweeper exit: a second end of one event would panic, or with a full
	// channel as the signal block its sender for good.
	for _, queue := range []int{0, 4} {
		for i := 0; i < 200; i++ {
			p, w := newToy(queue, 2)
			p.Spawn("worker", w.run)
			var wg sync.WaitGroup
			for c := 0; c < 2; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					reqs, call := numbered(6), w.conn(c)
					for n := 0; n < 4; n++ {
						res := call.Start(reqs).Wait()
						served := 0
						for served < len(res) && res[served].Err == nil {
							served++
						}
						check(t, res[:served], c, reqs[:served], false)
						check(t, res[served:], c, reqs[served:], true)
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if i%2 == 0 {
					runtime.Gosched()
				}
				p.Shutdown()
			}()
			wg.Wait()
			p.Wait()
		}
	}
}

// waitOrFail fails the test when p.Wait does not return: a worker left
// parked on its inbox, or a sweeper left putting its wake marker, would
// hold it for good.
func waitOrFail(t *testing.T, p *Process, what string) {
	t.Helper()
	joined := make(chan struct{})
	go func() { p.Wait(); close(joined) }()
	select {
	case <-joined:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: p.Wait did not return", what)
	}
}

func TestParkedWorkerLeavesWhenProcessTerminates(t *testing.T) {
	// The worker parks on its inbox alone; the sweeper's wake marker is
	// what tells it the process died. On a rendezvous inbox and a buffered
	// one: an idle worker, a worker busy in an Inspect when the process
	// dies, a drain that takes the marker first and puts it back, and a
	// mailbox whose worker never ran.
	for _, queue := range []int{0, 4} {
		name := fmt.Sprintf("queue %d", queue)
		t.Run(name+"/idle", func(t *testing.T) {
			for i := 0; i < 100; i++ {
				p, w := newToy(queue, 4)
				h := p.Spawn("worker", w.run)
				if _, _, err := w.conn(1).Do([]byte("x")); err != nil {
					t.Fatal(err)
				}
				p.Shutdown()
				waitOrFail(t, p, name)
				if err := h.Join(); err != nil {
					t.Fatalf("worker exit: %v", err)
				}
			}
		})
		t.Run(name+"/drain takes the marker", func(t *testing.T) {
			p, w := newToy(queue, 4)
			p.Spawn("worker", w.run)
			release := w.parked()
			p.Shutdown()
			if queue > 0 {
				// The sweeper has put the marker in the buffer once it holds
				// one event; the drain takes it and must put it back.
				for deadline := time.Now().Add(10 * time.Second); len(w.mb.ch) == 0; runtime.Gosched() {
					if time.Now().After(deadline) {
						t.Fatal("the sweeper put no wake marker in the inbox")
					}
				}
				w.mb.drain()
				if n := len(w.mb.ch); n != 1 {
					t.Fatalf("after the drain the inbox holds %d events, want the marker back", n)
				}
			} else {
				// On a rendezvous the sweeper waits in its send until a
				// receiver comes: take the marker from it and put it back
				// the way a drainer does, while the worker is still busy.
				select {
				case ev := <-w.mb.ch:
					if ev != nil {
						t.Fatalf("the sweeper sent %v, want the wake marker", ev)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("the sweeper sent no wake marker")
				}
				go w.mb.wake()
			}
			release()
			waitOrFail(t, p, name)
		})
	}
	t.Run("no worker", func(t *testing.T) {
		for _, queue := range []int{0, 4} {
			p, w := newToy(queue, 4)
			p.Shutdown()
			waitOrFail(t, p, fmt.Sprintf("queue %d", queue))
			w.mb.Serve(nil, nil) // entered after the sweep: returns at once
		}
	})
}

// mustPanic fails the test unless fn panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

func TestSecondEndPanics(t *testing.T) {
	// The completion rule ends an event exactly once; a second end is a bug
	// the event itself reports, for a record's inline event and for an
	// event of a longer pipeline. A call started on a record whose last
	// call was not waited for would reuse its live events, and panics too.
	p, w := newToy(4, 2)
	defer p.Shutdown()
	p.Spawn("worker", w.run)
	c := w.conn(1)
	if _, _, err := c.Do([]byte("x")); err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "a second end of the inline event", func() { c.one[0].end(true) })
	h := w.conn(2).Start(numbered(4))
	evs := h.started
	if len(evs) != 2 {
		t.Fatalf("a pipeline of 4 at maxBatch 2 started %d events", len(evs))
	}
	mustPanic(t, "a call before the last one's Wait", func() { h.Start(numbered(1)) })
	check(t, h.Wait(), 2, numbered(4), false)
	mustPanic(t, "a second end of a pipeline's event", func() { evs[1].end(true) })
	// The record is still good for the next call.
	resp, closed, err := c.Do([]byte("again"))
	check(t, []Result{{resp, closed, err}}, 1, [][]byte{[]byte("again")}, false)
}

// heldRequests counts the requests c's events and batch-of-one storage
// still reference.
func heldRequests(c *Call[int]) int {
	n := 0
	if c.req1[0] != nil {
		n++
	}
	for _, evs := range [][]Event[int]{c.one[:], c.evs} {
		for i := range evs {
			n += len(evs[i].Reqs)
		}
	}
	return n
}

func TestDoClearsItsEvent(t *testing.T) {
	// A connection's record outlives each call: once a Do or a chunked
	// pipeline has its results, no event of the record references a
	// request, so an idle connection keeps none reachable. A call on a
	// dead process clears them too.
	p, w := newToy(4, 4)
	p.Spawn("worker", w.run)
	c := w.conn(3)
	for _, down := range []bool{false, true} {
		if down {
			p.Shutdown()
			p.Wait()
		}
		resp, closed, err := c.Do([]byte("x"))
		check(t, []Result{{resp, closed, err}}, 3, [][]byte{[]byte("x")}, down)
		if n := heldRequests(c); n != 0 {
			t.Errorf("down=%v: after Do the record still holds %d requests", down, n)
		}
		check(t, c.Start(numbered(10)).Wait(), 3, numbered(10), down)
		if n := heldRequests(c); n != 0 {
			t.Errorf("down=%v: after a pipeline of three events the record still holds %d requests", down, n)
		}
	}
}

func TestWarmCallAllocatesNothing(t *testing.T) {
	// A warm call runs on what its record already holds: a Do, and a
	// Start/Wait of a pipeline cut into three events, allocate nothing.
	p, w := newToy(4, 2)
	defer p.Shutdown()
	w.echo = true
	p.Spawn("worker", w.run)
	c, reqs := w.conn(1), numbered(6)
	pipe := func() {
		if res := c.Start(reqs).Wait(); len(res) != len(reqs) || res[5].Err != nil {
			t.Fatalf("pipeline: %+v", res)
		}
	}
	do := func() {
		if _, _, err := c.Do(reqs[0]); err != nil {
			t.Fatal(err)
		}
	}
	pipe()
	if n := testing.AllocsPerRun(100, pipe); n != 0 {
		t.Errorf("a warm Start/Wait of three events allocates %.0f times", n)
	}
	if n := testing.AllocsPerRun(100, do); n != 0 {
		t.Errorf("a warm Do allocates %.0f times", n)
	}
}

// BenchmarkHandoffDo times the hand-off alone: two workers that answer
// with the request itself, one client goroutine and one mailbox each, each
// client reusing its one call record as a connection does. The iterations
// are split rounding up, so one iteration (-benchtime=1x, the smoke step)
// still hands an event to each worker.
func BenchmarkHandoffDo(b *testing.B) {
	p, w0 := newToy(4, 4)
	workers := []*toyWorker{w0, addToy(p, 4, 4)}
	for _, w := range workers {
		w.echo = true
		p.Spawn("worker", w.run)
	}
	req := []byte("x")
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for c, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			call := w.conn(c)
			for n := (b.N + len(workers) - 1) / len(workers); n > 0; n-- {
				if _, _, err := call.Do(req); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	p.Shutdown()
	p.Wait()
}

func TestReplyBlockCarving(t *testing.T) {
	// Each call rewinds the block, then carves replies of odd sizes back to
	// back: each starts on an 8-byte boundary, has cap == len and keeps its
	// bytes while the rest of its call's replies are carved. A reply that
	// does not fit the rest of the block gets a slice of its own, and the
	// next rewind doubles the block until it holds the last call's replies,
	// up to replyBlockSize. A call that fits carves from the start of the
	// block it rewound and allocates nothing.
	var rb ReplyBlock
	source := func(sizes ...int) [][]byte {
		srcs := make([][]byte, len(sizes))
		for i, n := range sizes {
			srcs[i] = make([]byte, n)
			for j := range srcs[i] {
				srcs[i][j] = byte(i + 1)
			}
		}
		return srcs
	}
	call := func(srcs, kept [][]byte) {
		rb.rewind()
		for i, b := range srcs {
			kept[i] = rb.copy(b)
		}
	}
	verify := func(what string, srcs, kept [][]byte) {
		t.Helper()
		for i, out := range kept {
			if !bytes.Equal(out, srcs[i]) || cap(out) != len(out) {
				t.Fatalf("%s: reply %d holds %d bytes, cap %d, want its own %d, cap == len", what, i, len(out), cap(out), len(srcs[i]))
			}
			if addr := uintptr(unsafe.Pointer(&out[0])); addr%8 != 0 {
				t.Errorf("%s: reply %d starts at %#x, not 8-byte aligned", what, i, addr)
			}
		}
	}
	// 8+8+16+1024+1544 = 2600 bytes: the first call finds no block, so
	// each reply gets a slice of its own; the next rewind doubles 512 to
	// 4096, which holds them all.
	small, kept := source(1, 7, 9, 1021, 1539), make([][]byte, 5)
	call(small, kept)
	verify("first call", small, kept)
	if rb.buf != nil {
		t.Fatalf("the first call carved from a %d-byte block", len(rb.buf))
	}
	call(small, kept)
	verify("second call", small, kept)
	if len(rb.buf) != 4096 || &kept[0][0] != &rb.buf[0] || rb.off != 2600 {
		t.Fatalf("second call: block of %d bytes, %d carved, want 4096 and 2600 from its start", len(rb.buf), rb.off)
	}
	if n := testing.AllocsPerRun(10, func() { call(small, kept) }); n != 0 {
		t.Errorf("a call that fits its block allocates %.0f times", n)
	}
	verify("warm call", small, kept)
	// 31000+8+32776+16 = 63800 bytes: a 31000-byte reply does not fit the
	// 4096-byte block, the next does; the rewind doubles to replyBlockSize
	// and no further, so the reply larger than that gets a slice of its
	// own on every call.
	big := source(31000, 5, replyBlockSize+3, 13)
	kept = make([][]byte, len(big))
	call(big, kept)
	verify("outgrown call", big, kept)
	if &kept[1][0] != &rb.buf[0] || rb.off != 8+16 {
		t.Errorf("outgrown call: %d bytes carved from the 4096-byte block, want 24 from its start", rb.off)
	}
	call(big, kept)
	verify("call after the doubling", big, kept)
	block := &rb.buf[0]
	if len(rb.buf) != replyBlockSize || &kept[0][0] != block || rb.off != 31000+8+16 {
		t.Errorf("block of %d bytes, %d carved, want %d and %d", len(rb.buf), rb.off, replyBlockSize, 31000+8+16)
	}
	call(big, kept)
	verify("call at the cap", big, kept)
	if &rb.buf[0] != block {
		t.Error("a rewind replaced a block already at replyBlockSize")
	}
}
