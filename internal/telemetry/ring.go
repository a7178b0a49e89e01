package telemetry

import (
	"math/bits"
	"sort"
	"sync/atomic"

	"sdrad/internal/cacheline"
)

// flightShards spreads writers over independent rings keyed by thread ID,
// so concurrent threads do not contend on one ring cursor.
const flightShards = 8

// Event is one decoded flight-recorder entry.
type Event struct {
	Seq    uint64 `json:"seq"`
	TimeNs int64  `json:"time_ns"`
	Kind   string `json:"kind"`
	Thread int    `json:"thread"`
	// UDI is the domain the event concerns, or -1 when not applicable.
	UDI  int    `json:"udi"`
	Code int    `json:"code"`
	PKey int    `json:"pkey"`
	Addr uint64 `json:"addr"`
	// Aux carries per-kind payload: heap bytes for init/discard/heap-merge,
	// latency ns for enter/exit, injected flag for fault/rewind.
	Aux uint64 `json:"aux"`
}

// slot is one ring entry: a state ticket plus seven payload words, all
// plain atomics so concurrent access is race-detector clean. A writer
// claims ticket i, stores state 2i+1 (writing), fills the payload, then
// stores 2i+2 (complete). Readers accept a slot only when the state reads
// exactly 2i+2 before and after copying the payload; a writer lapping the
// ring bumps the ticket, so torn snapshots are detected and skipped
// rather than locked against.
type slot struct {
	state atomic.Uint64
	w     [7]atomic.Uint64
}

// payload word layout inside a slot.
const (
	slotSeq     = 0 // global sequence number
	slotTime    = 1 // TimeNs
	slotKindTID = 2 // kind<<32 | uint32(tid)
	slotUDI     = 3 // uint64(int64(udi))
	slotCodeKey = 4 // uint32(code)<<32 | uint32(pkey)
	slotAddr    = 5
	slotAux     = 6
)

// ringShard is one single-cursor ring. The pad keeps each shard's cursor
// off the next shard's line: threads of different shards record at once.
type ringShard struct {
	pos   atomic.Uint64
	slots []slot
	_     cacheline.Pad
}

// FlightRecorder is the fixed-size, lock-free event ring. Writers never
// block and never allocate; readers reconstruct a best-effort globally
// ordered snapshot from the per-shard rings. seq is the one line every
// recording thread writes: Snapshot orders the shards' events by it, and
// no per-shard counter gives that global order.
type FlightRecorder struct {
	seq    atomic.Uint64
	mask   uint64
	shards [flightShards]ringShard
}

// newFlightRecorder sizes each shard to the next power of two of
// total/flightShards, minimum 64 events.
func newFlightRecorder(total int) *FlightRecorder {
	per := total / flightShards
	if per < 64 {
		per = 64
	}
	if per&(per-1) != 0 {
		per = 1 << bits.Len(uint(per))
	}
	f := &FlightRecorder{mask: uint64(per - 1)}
	for i := range f.shards {
		f.shards[i].slots = make([]slot, per)
	}
	return f
}

// Capacity returns the total number of events the recorder retains.
func (f *FlightRecorder) Capacity() int {
	return flightShards * int(f.mask+1)
}

// record writes one event. The hot path is a shard-cursor fetch-add plus
// nine straight atomic stores — no locks, no allocation.
func (f *FlightRecorder) record(timeNs int64, kind EventKind, tid, udi, code, pkey int, addr, aux uint64) {
	seq := f.seq.Add(1)
	sh := &f.shards[uint(tid)%flightShards]
	i := sh.pos.Add(1) - 1
	s := &sh.slots[i&f.mask]
	s.state.Store(2*i + 1)
	s.w[slotSeq].Store(seq)
	s.w[slotTime].Store(uint64(timeNs))
	s.w[slotKindTID].Store(uint64(kind)<<32 | uint64(uint32(tid)))
	s.w[slotUDI].Store(uint64(int64(udi)))
	s.w[slotCodeKey].Store(uint64(uint32(code))<<32 | uint64(uint32(pkey)))
	s.w[slotAddr].Store(addr)
	s.w[slotAux].Store(aux)
	s.state.Store(2*i + 2)
}

// Written returns the cumulative number of events recorded.
func (f *FlightRecorder) Written() uint64 { return f.seq.Load() }

// Snapshot returns the retained events ordered by sequence number. Slots
// being concurrently rewritten are skipped; the result is a consistent
// sample, not a barrier.
func (f *FlightRecorder) Snapshot() []Event {
	out := make([]Event, 0, f.Capacity())
	cap64 := f.mask + 1
	for si := range f.shards {
		sh := &f.shards[si]
		pos := sh.pos.Load()
		lo := uint64(0)
		if pos > cap64 {
			lo = pos - cap64
		}
		for i := lo; i < pos; i++ {
			s := &sh.slots[i&f.mask]
			want := 2*i + 2
			if s.state.Load() != want {
				continue
			}
			var w [7]uint64
			for j := range w {
				w[j] = s.w[j].Load()
			}
			if s.state.Load() != want {
				continue
			}
			out = append(out, Event{
				Seq:    w[slotSeq],
				TimeNs: int64(w[slotTime]),
				Kind:   EventKind(w[slotKindTID] >> 32).String(),
				Thread: int(uint32(w[slotKindTID])),
				UDI:    int(int64(w[slotUDI])),
				Code:   int(uint32(w[slotCodeKey] >> 32)),
				PKey:   int(uint32(w[slotCodeKey])),
				Addr:   w[slotAddr],
				Aux:    w[slotAux],
			})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}
