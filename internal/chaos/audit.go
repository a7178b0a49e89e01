package chaos

import (
	"sdrad/internal/core"
	"sdrad/internal/mem"
	"sdrad/internal/proc"
	"sdrad/internal/telemetry"
)

// auditor states the post-rewind contract once. It owns one audited
// library, its address space and the telemetry recorder attached to it,
// and judges every server event with one of three outcome checks against
// a before snapshot taken just ahead of the event:
//
//   - calm: nothing faulted, nothing rewound, nothing reported;
//   - trapped: a trap the server absorbed internally — exactly one fault
//     logged, one rewind, one forensics report agreeing with the
//     fault-log tail;
//   - aborted: the same for a stack-protector abort — no fault logged,
//     one rewind, one SIGABRT/STACK_CHK report.
//
// Beyond those it runs the invariant audits that need sweep context:
// the library audit and mapped-bytes stability across rewind cycles. One
// auditor serves one library.
type auditor struct {
	r   *Report
	lib *core.Library
	as  *mem.AddressSpace
	rec *telemetry.Recorder

	// baselineMapped is the address-space mapped-bytes gauge the first
	// checkMappedStable saw (0 before it); every later call must match
	// it, or discarded domains are leaking mappings.
	baselineMapped int64
}

func newAuditor(r *Report, lib *core.Library, rec *telemetry.Recorder) *auditor {
	return &auditor{r: r, lib: lib, as: lib.Process().AddressSpace(), rec: rec}
}

// before is one operation's snapshot of the three counters every outcome
// check diffs. The forensics counter is cumulative (the retain ring
// evicts), so the diff counts reports exactly.
type before struct {
	seq, rewinds, forensics int64
}

func (a *auditor) before() before {
	return before{a.as.FaultSeq(), a.lib.Stats().Rewinds.Load(), a.rec.Forensics().Added()}
}

// calm checks an operation that must not trap.
func (a *auditor) calm(label string, b before) {
	a.count(label, b, 0)
	if seq := a.as.FaultSeq(); seq != b.seq {
		a.r.failf("%s: %d faults logged by a calm operation", label, seq-b.seq)
	}
}

// trapped checks one absorbed memory trap; injected is the provenance the
// fault log must record. It returns the forensics report.
func (a *auditor) trapped(label string, b before, injected bool) telemetry.RewindReport {
	rep := a.absorbed(label, b)
	recs := a.as.RecentFaults()
	if len(recs) == 0 || recs[len(recs)-1].Seq != b.seq+1 {
		a.r.failf("%s: fault log advanced by %d entries, want 1", label, a.as.FaultSeq()-b.seq)
		return rep
	}
	f := recs[len(recs)-1]
	if f.Injected != injected {
		a.r.failf("%s: logged fault injected=%v, want %v", label, f.Injected, injected)
	}
	if rep.SiCode != int(f.Code) || rep.Addr != uint64(f.Addr) || rep.Injected != f.Injected {
		a.r.failf("%s: forensics %s at 0x%x injected=%v, fault log %v at 0x%x injected=%v",
			label, rep.SiCodeName, rep.Addr, rep.Injected, f.Code, uint64(f.Addr), f.Injected)
	}
	return rep
}

// aborted checks one absorbed stack-protector abort. It returns the
// forensics report.
func (a *auditor) aborted(label string, b before) telemetry.RewindReport {
	rep := a.absorbed(label, b)
	if seq := a.as.FaultSeq(); seq != b.seq {
		a.r.failf("%s: abort raised %d memory faults", label, seq-b.seq)
	}
	if rep.SignalName != "SIGABRT" || rep.SiCodeName != "STACK_CHK" {
		a.r.failf("%s: forensics oracle %s/%s, want SIGABRT/STACK_CHK", label, rep.SignalName, rep.SiCodeName)
	}
	return rep
}

// absorbed counts one injected fault, checks it cost exactly one rewind
// and one report, and returns the report.
func (a *auditor) absorbed(label string, b before) telemetry.RewindReport {
	a.r.Injected++
	a.count(label, b, 1)
	rep, ok := a.rec.Forensics().Last()
	if !ok {
		a.r.failf("%s: forensics store empty after rewind", label)
	}
	return rep
}

// count checks the rewind and forensics counters each moved by exactly
// want, and accounts the rewinds in the report.
func (a *auditor) count(label string, b before, want int) {
	n := int(a.lib.Stats().Rewinds.Load() - b.rewinds)
	a.r.Absorbed += n
	if n != want {
		a.r.failf("%s: %d rewinds absorbed, want %d", label, n, want)
	}
	if got := int(a.rec.Forensics().Added() - b.forensics); got != want {
		a.r.failf("%s: %d forensics reports captured, want %d", label, got, want)
	}
}

// auditOn runs the library audit on t and records every finding as a
// sweep failure. It must run on the audited thread, with the process
// quiescent (between requests).
func (a *auditor) auditOn(t *proc.Thread, label string) *core.AuditReport {
	rep := a.lib.Audit(t)
	a.r.Audits++
	for _, f := range rep.Findings {
		a.r.failf("%s: audit: %s", label, f)
	}
	return rep
}

// checkMappedStable compares the mapped-bytes gauge against the one the
// first call saw. A sweep calls it at the same steady state after every
// point (the final reads served, the serving thread audited), where any
// drift means a rewind cycle leaked or lost a mapping.
func (a *auditor) checkMappedStable(label string) {
	mapped := a.as.Stats().MappedBytes.Load()
	if a.baselineMapped == 0 {
		a.baselineMapped = mapped
		return
	}
	if mapped != a.baselineMapped {
		a.r.failf("%s: mapped bytes drifted across rewind cycles: %d, baseline %d",
			label, mapped, a.baselineMapped)
	}
}
