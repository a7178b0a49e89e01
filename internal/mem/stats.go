package mem

import "sync/atomic"

// Stats aggregates counters for an address space and the CPU contexts
// attached to it; they power the memory-overhead ("RSS") and
// domain-switch-profiling experiments.
//
// The hot access counters (reads, writes, bytes, PKRU writes) live on each
// CPU as plain thread-local fields so the access fast path never touches a
// shared cache line; Snapshot folds them together. The fields kept here are
// the cold shared ones: Faults (raised at trap frequency, not access
// frequency), LeasePagesWalked (at lease-verification frequency) and the
// MappedBytes gauge.
type Stats struct {
	// Faults counts raised memory faults.
	Faults atomic.Int64
	// LeasePagesWalked counts the pages span-lease verification walked:
	// one per page of a granted or renewed span, and the pages a refusal
	// looked at. A steady state whose leases stay valid walks none; a
	// revocation (a rewind, or any page-table change's shootdown) costs
	// the next use of each lease a walk of its whole span.
	LeasePagesWalked atomic.Int64
	// MappedBytes is the current total of mapped page bytes — the
	// simulation's resident-set-size analog used for the memory-overhead
	// experiments (paper §V-A, §V-B).
	MappedBytes atomic.Int64

	as *AddressSpace
}

// Snapshot is a point-in-time copy of the counters, safe to compare and
// print.
type Snapshot struct {
	Reads            int64
	Writes           int64
	BytesRead        int64
	BytesWritten     int64
	PKRUWrites       int64
	Faults           int64
	MappedBytes      int64
	LeasePagesWalked int64
}

// Snapshot aggregates the per-CPU counters with the shared gauges. The
// per-CPU fields are plain (unsynchronized) thread-local counters, so a
// snapshot is exact only when the counted threads are quiescent (joined or
// parked); concurrent snapshots see a consistent-enough running total for
// monitoring but must not race with a -race-instrumented access stream.
func (s *Stats) Snapshot() Snapshot {
	snap := Snapshot{
		Faults:           s.Faults.Load(),
		MappedBytes:      s.MappedBytes.Load(),
		LeasePagesWalked: s.LeasePagesWalked.Load(),
	}
	as := s.as
	as.cpuMu.Lock()
	for _, c := range as.cpus {
		snap.Reads += c.counts.reads
		snap.Writes += c.counts.writes
		snap.BytesRead += c.counts.bytesRead
		snap.BytesWritten += c.counts.bytesWritten
		snap.PKRUWrites += c.counts.pkruWrites
	}
	as.cpuMu.Unlock()
	return snap
}

// Sub returns the delta s minus o, field by field. MappedBytes is copied
// from s (it is a gauge, not a counter).
func (s Snapshot) Sub(o Snapshot) Snapshot {
	return Snapshot{
		Reads:            s.Reads - o.Reads,
		Writes:           s.Writes - o.Writes,
		BytesRead:        s.BytesRead - o.BytesRead,
		BytesWritten:     s.BytesWritten - o.BytesWritten,
		PKRUWrites:       s.PKRUWrites - o.PKRUWrites,
		Faults:           s.Faults - o.Faults,
		MappedBytes:      s.MappedBytes,
		LeasePagesWalked: s.LeasePagesWalked - o.LeasePagesWalked,
	}
}
