package core

import (
	"sdrad/internal/mem"
	"sdrad/internal/proc"
	"sdrad/internal/sig"
	"sdrad/internal/telemetry"
	"sdrad/internal/tlsf"
)

// attachTelemetry wires the recorder through the layers this library
// owns: the address space records fault events (and the process
// supervisor, which reads it there, fatal signals and crashes), and the
// monitor's native counters are mirrored into the registry as callbacks —
// exposition reads them, the hot paths gain no extra writes.
func (l *Library) attachTelemetry(rec *telemetry.Recorder) {
	l.p.AddressSpace().SetTelemetry(rec)
	reg := rec.Registry()
	reg.CounterFunc("sdrad_domain_transitions_total",
		"Enter/Exit domain transitions performed by the reference monitor.",
		func() int64 { return l.stats.DomainSwitches.Load() })
	reg.CounterFunc("sdrad_domain_inits_total",
		"Domains initialized.",
		func() int64 { return l.stats.Inits.Load() })
	reg.CounterFunc("sdrad_domain_destroys_total",
		"Domains destroyed (including rewind discards).",
		func() int64 { return l.stats.Destroys.Load() })
	reg.CounterFunc("sdrad_monitor_calls_total",
		"Reference-monitor invocations.",
		func() int64 { return l.stats.MonitorCalls.Load() })
	reg.CounterFunc("sdrad_bytes_copied_total",
		"Bytes marshalled across domain boundaries via the monitor.",
		func() int64 { return l.stats.BytesCopied.Load() })
}

// Telemetry returns the attached recorder, or nil.
func (l *Library) Telemetry() *telemetry.Recorder { return l.tel.Load() }

// siCodeName names a trap's si_code for metric labels and forensics:
// SIGSEGV codes carry the MMU's discrimination; a SIGABRT has no si_code
// and is labeled by its oracle instead, the stack protector or the heap
// allocator's free-time check.
func siCodeName(info sig.Info) string {
	if info.Signal == sig.SIGABRT {
		if _, ok := info.Cause.(*tlsf.CorruptionError); ok {
			return "HEAP_CHK"
		}
		return "STACK_CHK"
	}
	return mem.FaultCode(info.Code).String()
}

// buildRewindReport captures everything about the failing domain that the
// discard is about to destroy. Called from handleTrap before step ⑬; the
// sequence number is filled in afterwards.
func buildRewindReport(t *proc.Thread, ts *threadState, failing *Domain, info sig.Info, cause any, limit int64) telemetry.RewindReport {
	rep := telemetry.RewindReport{
		ThreadID:    t.ID(),
		ThreadName:  t.Name(),
		FailedUDI:   int(failing.udi),
		Signal:      int(info.Signal),
		SignalName:  info.Signal.String(),
		SiCode:      info.Code,
		SiCodeName:  siCodeName(info),
		Addr:        info.Addr,
		PKey:        info.PKey,
		HeapBase:    uint64(failing.heapBase),
		HeapBytes:   failing.heapSize,
		HeapPages:   int((failing.heapSize + mem.PageSize - 1) / mem.PageSize),
		StackBytes:  failing.stackSize,
		StackPages:  int((failing.stackSize + mem.PageSize - 1) / mem.PageSize),
		RewindLimit: limit,
	}
	for _, er := range ts.enterStack {
		rep.DomainStack = append(rep.DomainStack, int(er.entered.udi))
	}
	if failing.heap != nil {
		rep.LiveAllocs = failing.heap.AllocCount() - failing.heap.FreeCount()
	}
	if f, ok := cause.(*mem.Fault); ok {
		rep.Injected = f.Injected
	}
	return rep
}
