package proc

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

var errToyDown = errors.New("toy: worker down")

// toyWorker serves a mailbox the way both servers do: it answers each
// request with "<conn>:<request>" and records the size of every event it
// took. The request "trap" is a memory-safety violation with no recovery
// point: it kills the process with its event still in the worker's hands.
type toyWorker struct {
	mb     *Mailbox[int]
	echo   bool  // answer with the request itself (benchmark: no allocation)
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
		w.chunks = append(w.chunks, len(ev.Reqs))
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
	var pending []*Pending[int]
	for i := 0; i < 5; i++ {
		pending = append(pending, w.mb.Start(i, numbered(1)))
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
	h := w.mb.Start(7, numbered(11))
	check(t, h.Wait(), 7, numbered(11), false)
	var chunks []int
	if err := w.mb.Inspect(func(*Thread) error { chunks = append(chunks, w.chunks...); return nil }); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(chunks) != "[4 4 3]" {
		t.Errorf("events taken = %v, want the pipeline cut at maxBatch: [4 4 3]", chunks)
	}
	// Wait spent the handle. The worker is alive and idle, so a second Wait
	// that waited on anything would block here for good.
	if res := h.Wait(); res != nil {
		t.Errorf("second Wait returned %d results, want nil", len(res))
	}
	resp, closed, err := w.mb.Do(9, []byte("solo"))
	check(t, []Result{{resp, closed, err}}, 9, [][]byte{[]byte("solo")}, false)
}

func TestDownProcessFailsEveryRequestWithoutHanging(t *testing.T) {
	t.Run("already down", func(t *testing.T) {
		p, w := newToy(0, 4)
		p.Shutdown()
		resp, closed, err := w.mb.Do(1, []byte("x"))
		check(t, []Result{{resp, closed, err}}, 1, numbered(1), true)
		if err := w.mb.Inspect(func(*Thread) error { return nil }); !errors.Is(err, errToyDown) {
			t.Errorf("Inspect on a dead process: %v", err)
		}
		check(t, w.mb.DoPipeline(1, numbered(9)), 1, numbered(9), true)
	})
	t.Run("dies between start and wait", func(t *testing.T) {
		// Three events are queued and nobody serves them.
		p, w := newToy(4, 4)
		h := w.mb.Start(1, numbered(10))
		p.Shutdown()
		check(t, h.Wait(), 1, numbered(10), true)
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
		var pending []*Pending[int]
		for i := 0; i < 3; i++ {
			req := []byte("ok")
			if i == trapAt {
				req = []byte("trap")
			}
			pending = append(pending, w.mb.Start(i, [][]byte{req}))
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
		for _, w := range []*toyWorker{a, b} {
			if _, _, err := w.mb.Do(1, []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		p.Terminate(errors.New("sibling crashed"))
		if resp, closed, err := b.mb.Do(1, []byte("late")); !errors.Is(err, errToyDown) || !closed {
			t.Fatalf("iteration %d: Do after Terminate = %q closed=%v err=%v, want the down error", i, resp, closed, err)
		}
		p.Wait()
	}
}

func TestStartRacingTerminateEndsEveryEventOnce(t *testing.T) {
	// Clients keep starting pipelines while another goroutine terminates
	// the process. Every Wait returns (no event is left unended), a served
	// prefix is intact and everything behind the first failure reports
	// down, and the worker and the sweeper exit: a second end of one event
	// would panic, or with a one-slot channel as the signal block its
	// sender for good.
	for _, queue := range []int{0, 4} {
		for i := 0; i < 200; i++ {
			p, w := newToy(queue, 2)
			p.Spawn("worker", w.run)
			var wg sync.WaitGroup
			for c := 0; c < 2; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					reqs := numbered(6)
					for n := 0; n < 4; n++ {
						res := w.mb.Start(c, reqs).Wait()
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

// BenchmarkHandoffDo times the hand-off alone: two workers that answer
// with the request itself, one client goroutine and one mailbox each. The
// iterations are split rounding up, so one iteration (-benchtime=1x, the
// smoke step) still hands an event to each worker.
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
			for n := (b.N + len(workers) - 1) / len(workers); n > 0; n-- {
				if _, _, err := w.mb.Do(c, req); err != nil {
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
	// Replies of odd sizes carved back to back: each starts on an 8-byte
	// boundary, has cap == len and keeps its bytes while later replies are
	// carved; a reply that does not fit the rest of the block starts a new
	// one, and one larger than a block gets a slice of its own.
	var rb ReplyBlock
	var kept [][]byte
	for i, n := range []int{1, 7, 9, 1021, 1539, 31000, 5, replyBlockSize + 3, 13} {
		src := make([]byte, n)
		for j := range src {
			src[j] = byte(i + 1)
		}
		out := rb.copy(src)
		if len(out) != n || cap(out) != n {
			t.Fatalf("reply %d: len %d cap %d, want %d", i, len(out), cap(out), n)
		}
		if addr := uintptr(unsafe.Pointer(&out[0])); addr%8 != 0 {
			t.Errorf("reply %d starts at %#x, not 8-byte aligned", i, addr)
		}
		kept = append(kept, out)
	}
	for i, out := range kept {
		for _, b := range out {
			if b != byte(i+1) {
				t.Fatalf("reply %d was overwritten by a later one", i)
			}
		}
	}
	// 2600 bytes of the first block are carved when the 31000-byte reply
	// does not fit; the second block holds it, then 8 and 16.
	if want := replyBlockSize - 31000 - 8 - 16; len(rb.free) != want {
		t.Errorf("the second block has %d bytes left, want %d", len(rb.free), want)
	}
}
