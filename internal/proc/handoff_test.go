package proc

import (
	"errors"
	"fmt"
	"testing"
)

var errToyDown = errors.New("toy: worker down")

// toyWorker serves a mailbox the way both servers' loops do: it answers
// each request with "<conn>:<request>" and records the size of every
// event it took.
type toyWorker struct {
	mb     *Mailbox[int]
	chunks []int // owned by the worker thread; read through Inspect
}

func newToy(queue, maxBatch int) (*Process, *toyWorker) {
	p := NewProcess("toy")
	return p, &toyWorker{mb: NewMailbox[int](p, queue, maxBatch, errToyDown)}
}

func (w *toyWorker) run(t *Thread) error {
	for {
		select {
		case <-t.Process().Done():
			return nil
		case ev := <-w.mb.Events():
			if ev.Inspect != nil {
				ev.RunInspect(t)
				continue
			}
			w.chunks = append(w.chunks, len(ev.Reqs))
			for i, req := range ev.Reqs {
				ev.Res[i].Resp = []byte(fmt.Sprintf("%d:%s", ev.Conn, req))
			}
			ev.Finish()
		}
	}
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
	// in the channel, and a worker spawned afterwards serves them all.
	p, w := newToy(8, 4)
	defer p.Shutdown()
	var pending []*Pending[int]
	for i := 0; i < 5; i++ {
		pending = append(pending, w.mb.Start(i, numbered(1)))
		if got := len(w.mb.Events()); got != i+1 {
			t.Fatalf("after %d starts the channel holds %d events", i+1, got)
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
