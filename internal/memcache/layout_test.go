package memcache

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"sdrad/internal/cacheline"
	"sdrad/internal/proc"
)

// writtenSpan is one range of memory a worker writes while it serves.
type writtenSpan struct {
	name string
	cacheline.Span
}

// backing is the span of a slice's backing array up to its cap, the part
// the worker writes into as the slice grows; ok is false for none.
func backing[T any](name string, s []T) (writtenSpan, bool) {
	if cap(s) == 0 {
		return writtenSpan{}, false
	}
	var zero T
	return writtenSpan{name, cacheline.Of(uintptr(unsafe.Pointer(unsafe.SliceData(s))),
		uintptr(cap(s))*unsafe.Sizeof(zero))}, true
}

// workerWrites lists what w writes per request on c: its record's
// fields, every scratch array it reuses from one event to the next, the
// connection's record, and the result and event arrays of the
// connection's call record (its client writes both on every call too).
// The connection's reply block is left out: it is an allocation of its
// own, a power of two of at least 512 bytes, in a size class whose
// objects start on a line.
func workerWrites(w *worker, c *Conn) []writtenSpan {
	out := []writtenSpan{{"worker", cacheline.Fields(w)}, {"conn", cacheline.Fields(c)}}
	add := func(s writtenSpan, ok bool) {
		if ok {
			out = append(out, s)
		}
	}
	call := reflect.ValueOf(&c.call).Elem()
	for _, name := range []string{"res", "evs"} {
		if f := call.FieldByName(name); f.Cap() > 0 {
			out = append(out, writtenSpan{"call." + name, cacheline.Of(uintptr(f.UnsafePointer()),
				uintptr(f.Cap())*f.Type().Elem().Size())})
		}
	}
	add(backing("states", w.states))
	add(backing("slots", w.slots))
	add(backing("dops.pending", w.dops.pending))
	add(backing("dops.groups", w.dops.groups))
	for i, g := range w.dops.groups {
		add(backing(fmt.Sprintf("dops.groups[%d]", i), g))
	}
	add(backing("env.tokens", w.env.tokens))
	add(backing("env.scratch", w.env.scratch))
	add(backing("scratchAddrs", w.scratchAddrs))
	return out
}

// What one memcache worker writes on the request path shares no cache
// line with what the other writes (DESIGN §9): warmed at depth 1 (the
// scratch a depth-1 event sizes), then with pipelines of stores, hits
// and deletes, then with pipelines of twenty that take two events, the
// two workers' records and scratch arrays lie on disjoint lines, so two
// workers on two CPUs never hand a line back and forth.
func TestWorkersWriteNoSharedLine(t *testing.T) {
	allVariants(t, func(t *testing.T, v Variant) {
		s := startServer(t, v, 2)
		conns := []*Conn{connOn(s, 0), connOn(s, 1)}
		check := func(phase string) {
			t.Helper()
			var spans [2][]writtenSpan
			for i, c := range conns {
				if err := c.Inspect(func(*proc.Thread) error {
					spans[i] = workerWrites(c.w, c)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			for _, a := range spans[0] {
				for _, b := range spans[1] {
					if a.Shares(b.Span) {
						t.Errorf("%s: worker 0's %s (lines %#x-%#x) shares a line with worker 1's %s (lines %#x-%#x)",
							phase, a.name, a.First, a.Last, b.name, b.First, b.Last)
					}
				}
			}
		}
		for round := 0; round < 4; round++ {
			for i, c := range conns {
				key := fmt.Sprintf("k%d-%d", i, round)
				mustDo(t, c, FormatSet(key, []byte("value"), 0))
				mustDo(t, c, FormatGet(key))
			}
		}
		check("depth 1")
		for round := 0; round < 4; round++ {
			for i, c := range conns {
				key := fmt.Sprintf("k%d-%d", i, round)
				for _, r := range c.DoPipeline([][]byte{
					FormatSet(key+"p", []byte("v"), 0), FormatGet(key), FormatDelete(key + "p"), FormatGet("absent"),
				}) {
					if r.Err != nil || r.Closed {
						t.Fatalf("pipeline on worker %d: %+v", i, r)
					}
				}
			}
		}
		check("depth 4")
		for i, c := range conns {
			reqs := make([][]byte, 20)
			for j := range reqs {
				reqs[j] = FormatGet(fmt.Sprintf("k%d-%d", i, j%4))
			}
			for _, r := range c.DoPipeline(reqs) {
				if r.Err != nil || r.Closed {
					t.Fatalf("pipeline of two events on worker %d: %+v", i, r)
				}
			}
		}
		check("two events")
	})
}
