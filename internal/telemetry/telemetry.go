// Package telemetry is the observability subsystem of the SDRaD
// reproduction: a fixed-size lock-free flight recorder of structured
// domain-lifecycle events, a metrics registry with Prometheus text
// exposition and a JSON snapshot API, and a rewind-forensics store that
// retains a post-mortem report for every absorbed rewind.
//
// The paper's pitch is that a compromised domain is discarded and the
// service keeps running — which makes the *record* of why a rewind
// happened the only artifact an operator ever sees of an absorbed
// attack. "Unlimited Lives" (Gülmez et al., 2022) motivates rewind
// accounting and rate-limiting against repeated-attack DoS, and ERIM
// (Vahldiek-Oberwagner et al.) identifies domain-crossing counts as the
// key cost metric; both need the first-class telemetry implemented here.
//
// Wiring: producers (internal/core, internal/mem, internal/proc,
// internal/sig) hold an atomic.Pointer[Recorder] and record only when it
// is non-nil, so the disabled-recorder cost on a hot path is exactly one
// atomic pointer load. Enter/exit transitions are additionally sampled
// (1 in 2^TransitionSampleShift carries a flight-recorder event and a
// latency observation); rare events — faults, rewinds, discards, heap
// merges, signals — are always recorded. The package deliberately
// imports nothing but the standard library so every layer of the
// simulation, down to the MMU, can feed it.
package telemetry

import (
	"strconv"
	"sync/atomic"
	"time"
)

// EventKind discriminates flight-recorder events.
type EventKind uint8

// Domain-lifecycle event kinds.
const (
	EvInit EventKind = iota + 1
	EvEnter
	EvExit
	EvFault
	EvRewind
	EvDiscard
	EvHeapMerge
	EvSignal
	EvCrash
	EvThreadStart
	EvThreadExit
	// EvPolicy records a resilience-policy decision (escalation or
	// readmission); code carries the ladder state, pkey the action, aux
	// the sliding-window rewind count. Appended last so earlier kinds
	// keep their values in persisted dumps.
	EvPolicy
)

func (k EventKind) String() string {
	switch k {
	case EvInit:
		return "init"
	case EvEnter:
		return "enter"
	case EvExit:
		return "exit"
	case EvFault:
		return "fault"
	case EvRewind:
		return "rewind"
	case EvDiscard:
		return "discard"
	case EvHeapMerge:
		return "heap-merge"
	case EvSignal:
		return "signal"
	case EvCrash:
		return "crash"
	case EvThreadStart:
		return "thread-start"
	case EvThreadExit:
		return "thread-exit"
	case EvPolicy:
		return "policy"
	default:
		return "unknown"
	}
}

// Options configures a Recorder.
type Options struct {
	// FlightEvents is the total flight-recorder capacity in events,
	// spread over the per-thread shards (default 4096; rounded up to a
	// power of two per shard).
	FlightEvents int
	// ForensicsRetain is how many rewind post-mortem reports are kept
	// (default 64). The cumulative count is unbounded.
	ForensicsRetain int
	// TransitionSampleShift selects 1-in-2^shift sampling of enter/exit
	// transitions for flight events and latency histograms. 0 means the
	// default (4, i.e. 1 in 16); negative records every transition.
	TransitionSampleShift int
}

// defaultTransitionSampleShift is the 1-in-16 default.
const defaultTransitionSampleShift = 4

// Recorder ties the flight recorder, the metrics registry, and the
// forensics store together. One Recorder may be shared by any number of
// simulated processes; all its methods are safe for concurrent use.
type Recorder struct {
	start   time.Time
	enabled atomic.Bool

	flight     *FlightRecorder
	reg        *Registry
	store      *ForensicsStore
	sampleMask uint64

	// Pre-registered metrics (cold-path families resolve labels on use).
	mDiscardBytes *Counter
	mHeapMerges   *Counter
	mCrashes      *Counter
	mRewinds      *CounterVec // by si_code
	mFaults       *CounterVec // by si_code
	mDomainFaults *CounterVec // by udi
	mLastFault    *GaugeVec   // by udi
	mSignals      *CounterVec // by signal
	mEnterLat     *Histogram
	mExitLat      *Histogram
}

// New builds an enabled Recorder.
func New(opts Options) *Recorder {
	if opts.FlightEvents <= 0 {
		opts.FlightEvents = 4096
	}
	if opts.ForensicsRetain <= 0 {
		opts.ForensicsRetain = 64
	}
	shift := opts.TransitionSampleShift
	switch {
	case shift == 0:
		shift = defaultTransitionSampleShift
	case shift < 0:
		shift = 0
	}
	r := &Recorder{
		start:      time.Now(),
		flight:     newFlightRecorder(opts.FlightEvents),
		reg:        NewRegistry(),
		store:      newForensicsStore(opts.ForensicsRetain),
		sampleMask: 1<<uint(shift) - 1,
	}
	r.enabled.Store(true)

	reg := r.reg
	r.mDiscardBytes = reg.Counter("sdrad_discarded_bytes_total",
		"Heap bytes discarded with their domain (rewinds, destroys, thread teardown).")
	r.mHeapMerges = reg.Counter("sdrad_heap_merges_total",
		"Subheaps merged into the parent heap on clean destroy.")
	r.mCrashes = reg.Counter("sdrad_process_crashes_total",
		"Simulated processes terminated by an unrecovered fault.")
	r.mRewinds = reg.CounterVec("sdrad_rewinds_total",
		"Rewinds absorbed by the reference monitor, by detection oracle.", "si_code")
	r.mFaults = reg.CounterVec("sdrad_faults_total",
		"Memory faults raised by the simulated MMU, by si_code.", "si_code")
	r.mDomainFaults = reg.CounterVec("sdrad_domain_faults_total",
		"Faults attributed to a failing domain, by UDI.", "udi")
	r.mLastFault = reg.GaugeVec("sdrad_domain_last_fault_address",
		"Faulting address of the most recent fault attributed to each UDI.", "udi")
	r.mSignals = reg.CounterVec("sdrad_signals_total",
		"Signals delivered through the process signal table.", "signal")
	// Every sampling thread observes the transition latencies, so each
	// histogram has a cell per flight-recorder shard, picked by thread ID
	// as record picks its ring.
	r.mEnterLat = reg.ShardedHistogram("sdrad_enter_latency_ns",
		"Sampled latency of monitor Enter transitions (ns).", flightShards)
	r.mExitLat = reg.ShardedHistogram("sdrad_exit_latency_ns",
		"Sampled latency of monitor Exit transitions (ns).", flightShards)
	reg.CounterFunc("sdrad_flight_events_total",
		"Events written to the flight recorder.",
		func() int64 { return int64(r.flight.seq.Load()) })
	reg.CounterFunc("sdrad_forensics_reports_total",
		"Rewind post-mortem reports synthesized.",
		func() int64 { return r.store.Added() })
	reg.GaugeFunc("sdrad_forensics_reports_retained",
		"Rewind post-mortem reports currently retained for inspection.",
		func() int64 { return int64(len(r.store.Reports())) })
	return r
}

// Enabled reports whether recording is active.
func (r *Recorder) Enabled() bool { return r.enabled.Load() }

// SetEnabled pauses or resumes recording. Metrics backed by producer
// counters (CounterFunc/GaugeFunc) keep moving; events, histograms, and
// forensics stop.
func (r *Recorder) SetEnabled(on bool) { r.enabled.Store(on) }

// Registry returns the metrics registry, for producers registering
// CounterFunc/GaugeFunc mirrors of their native counters and for
// consumers creating workload metrics.
func (r *Recorder) Registry() *Registry { return r.reg }

// Flight returns the flight recorder.
func (r *Recorder) Flight() *FlightRecorder { return r.flight }

// Forensics returns the rewind post-mortem store.
func (r *Recorder) Forensics() *ForensicsStore { return r.store }

// Clock returns monotonic nanoseconds since the recorder was created —
// the timebase of flight events and forensics reports.
func (r *Recorder) Clock() int64 { return int64(time.Since(r.start)) }

// Sampled reports whether transition number n (the producer's own
// monotonic transition counter) should carry a flight event and a
// latency observation. Always false while disabled, so producers that
// clock latency only on sampled transitions pay nothing when an attached
// recorder is paused.
func (r *Recorder) Sampled(n uint64) bool { return r.enabled.Load() && n&r.sampleMask == 0 }

// RecordDomainInit records a domain initialization.
func (r *Recorder) RecordDomainInit(tid, udi, kind int, heapBytes uint64) {
	if !r.enabled.Load() {
		return
	}
	r.flight.record(r.Clock(), EvInit, tid, udi, kind, 0, 0, heapBytes)
}

// RecordEnter records a sampled Enter transition and its latency.
func (r *Recorder) RecordEnter(tid, udi int, latNs int64) {
	if !r.enabled.Load() {
		return
	}
	r.mEnterLat.ObserveShard(tid, latNs)
	r.flight.record(r.Clock(), EvEnter, tid, udi, 0, 0, 0, uint64(latNs))
}

// RecordExit records a sampled Exit transition and its latency.
func (r *Recorder) RecordExit(tid, udi int, latNs int64) {
	if !r.enabled.Load() {
		return
	}
	r.mExitLat.ObserveShard(tid, latNs)
	r.flight.record(r.Clock(), EvExit, tid, udi, 0, 0, 0, uint64(latNs))
}

// RecordDiscard records a domain heap discard of the given size.
func (r *Recorder) RecordDiscard(tid, udi int, heapBytes uint64) {
	if !r.enabled.Load() {
		return
	}
	r.mDiscardBytes.Add(int64(heapBytes))
	r.flight.record(r.Clock(), EvDiscard, tid, udi, 0, 0, 0, heapBytes)
}

// RecordHeapMerge records a clean-destroy subheap merge into the parent.
func (r *Recorder) RecordHeapMerge(tid, udi int, heapBytes uint64) {
	if !r.enabled.Load() {
		return
	}
	r.mHeapMerges.Add(1)
	r.flight.record(r.Clock(), EvHeapMerge, tid, udi, 0, 0, 0, heapBytes)
}

// RecordFault records a raised MMU fault. codeName is the si_code label
// (e.g. "SEGV_PKUERR"); the raising layer does not know the victim
// domain — attribution happens in RecordRewind.
func (r *Recorder) RecordFault(codeName string, code int, addr uint64, pkey int, injected bool) {
	if !r.enabled.Load() {
		return
	}
	r.mFaults.With(codeName).Add(1)
	aux := uint64(0)
	if injected {
		aux = 1
	}
	r.flight.record(r.Clock(), EvFault, 0, -1, code, pkey, addr, aux)
}

// RecordSignal records a delivery through the process signal table.
func (r *Recorder) RecordSignal(tid int, signalName string, signal, code int, addr uint64) {
	if !r.enabled.Load() {
		return
	}
	r.mSignals.With(signalName).Add(1)
	r.flight.record(r.Clock(), EvSignal, tid, -1, code, signal, addr, 0)
}

// RecordCrash records an unrecovered fault terminating a simulated
// process.
func (r *Recorder) RecordCrash(tid int) {
	if !r.enabled.Load() {
		return
	}
	r.mCrashes.Add(1)
	r.flight.record(r.Clock(), EvCrash, tid, -1, 0, 0, 0, 0)
}

// RecordThreadStart records a thread acquiring its domain state.
func (r *Recorder) RecordThreadStart(tid int) {
	if !r.enabled.Load() {
		return
	}
	r.flight.record(r.Clock(), EvThreadStart, tid, -1, 0, 0, 0, 0)
}

// RecordThreadExit records a thread releasing its domain state.
func (r *Recorder) RecordThreadExit(tid int) {
	if !r.enabled.Load() {
		return
	}
	r.flight.record(r.Clock(), EvThreadExit, tid, -1, 0, 0, 0, 0)
}

// RecordPolicy records a resilience-policy decision: state and action
// are the policy package's State/Action values (kept as ints so this
// package stays dependency-free), aux is the sliding-window rewind
// count at decision time.
func (r *Recorder) RecordPolicy(tid, udi, state, action int, aux uint64) {
	if !r.enabled.Load() {
		return
	}
	r.flight.record(r.Clock(), EvPolicy, tid, udi, state, action, 0, aux)
}

// RecordRewind stores the post-mortem report of one absorbed rewind and
// accounts it in the metrics. The report's TimeNs is stamped here if the
// producer left it zero.
func (r *Recorder) RecordRewind(rep RewindReport) {
	if !r.enabled.Load() {
		return
	}
	if rep.TimeNs == 0 {
		rep.TimeNs = r.Clock()
	}
	r.store.Add(rep)
	r.mRewinds.With(rep.SiCodeName).Add(1)
	udi := strconv.Itoa(rep.FailedUDI)
	r.mDomainFaults.With(udi).Add(1)
	r.mLastFault.With(udi).Set(int64(rep.Addr))
	aux := uint64(0)
	if rep.Injected {
		aux = 1
	}
	r.flight.record(rep.TimeNs, EvRewind, rep.ThreadID, rep.FailedUDI, rep.SiCode, rep.PKey, rep.Addr, aux)
}
