package chaos

import (
	"errors"

	"sdrad/internal/core"
	"sdrad/internal/mem"
	"sdrad/internal/proc"
	"sdrad/internal/sig"
	"sdrad/internal/telemetry"
)

// auditor states the post-rewind contract once. It owns one audited
// library, its address space and the telemetry recorder attached to it,
// and judges every campaign operation with one of five outcome checks
// against a before snapshot taken just ahead of the operation:
//
//   - calm: nothing faulted, nothing rewound, nothing reported;
//   - trapped: a trap the server absorbed internally — exactly one fault
//     logged, one rewind, one forensics report agreeing with the
//     fault-log tail;
//   - aborted: the same for a stack-protector abort — no fault logged,
//     one rewind, one SIGABRT/STACK_CHK report;
//   - exited: a guard scope the campaign ran itself returned the
//     *core.AbnormalExit, which must agree with trapped or aborted above
//     and with its forensics report;
//   - mutated: a mutated request rewinds any number of times, each one
//     counted as injected and leaving one report.
//
// Beyond those it runs the invariant audits that need campaign context:
// the library audit, residual mappings of discarded domains, and
// mapped-bytes stability across rewind cycles. One auditor serves one
// library.
type auditor struct {
	r   *Report
	lib *core.Library
	as  *mem.AddressSpace
	rec *telemetry.Recorder

	// baselineMapped holds, per steady-state class, the address-space
	// mapped-bytes gauge captured the first time that class was reached;
	// later visits must match it, or discarded domains are leaking
	// mappings. Classes separate states that legitimately differ — e.g.
	// a parser-domain rewind and a verifier-domain rewind leave different
	// domains unmapped at audit time.
	baselineMapped map[string]int64
}

func newAuditor(r *Report, lib *core.Library, rec *telemetry.Recorder) *auditor {
	return &auditor{r: r, lib: lib, as: lib.Process().AddressSpace(), rec: rec, baselineMapped: map[string]int64{}}
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

// mutated checks a mutated request, which may or may not trap: every
// rewind it caused counts as injected and must leave one report. It
// returns the number of rewinds.
func (a *auditor) mutated(label string, b before) int {
	n := int(a.lib.Stats().Rewinds.Load() - b.rewinds)
	a.r.Injected += n
	a.count(label, b, n)
	return n
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

// exited checks a guard scope that must have ended in an abnormal exit of
// udi with signal (a SIGSEGV's fault injected or not), and returns it.
func (a *auditor) exited(label string, b before, gerr error, udi core.UDI, signal sig.Signal, injected bool) *core.AbnormalExit {
	var rep telemetry.RewindReport
	if signal == sig.SIGABRT {
		rep = a.aborted(label, b)
	} else {
		rep = a.trapped(label, b, injected)
	}
	var abn *core.AbnormalExit
	if !errors.As(gerr, &abn) {
		a.r.failf("%s: guard returned %v, want abnormal exit", label, gerr)
		return nil
	}
	if abn.FailedUDI != udi || abn.Signal != signal {
		a.r.failf("%s: abnormal exit of domain %d by %v, want %d by %v", label, abn.FailedUDI, abn.Signal, udi, signal)
	}
	if rep.SiCode != abn.Code || rep.Addr != abn.Addr || rep.FailedUDI != int(abn.FailedUDI) || rep.SignalName != abn.Signal.String() {
		a.r.failf("%s: forensics %s/%d at 0x%x in domain %d, oracle %v/%d at 0x%x in domain %d", label,
			rep.SignalName, rep.SiCode, rep.Addr, rep.FailedUDI, abn.Signal, abn.Code, abn.Addr, abn.FailedUDI)
	}
	return abn
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
// campaign failure. It must run on the audited thread, with the process
// quiescent (between requests).
func (a *auditor) auditOn(t *proc.Thread, label string) *core.AuditReport {
	rep := a.lib.Audit(t)
	a.r.Audits++
	for _, f := range rep.Findings {
		a.r.failf("%s: audit: %s", label, f)
	}
	return rep
}

// checkMappedStable compares the mapped-bytes gauge against the baseline
// captured the first time the given steady-state class was visited.
// Campaigns call it at equivalent steady states (right after an absorbed
// rewind, before the workload rebuilds its domain), where any drift means
// a rewind cycle leaked or lost a mapping.
func (a *auditor) checkMappedStable(class, label string) {
	mapped := a.as.Stats().MappedBytes.Load()
	base, ok := a.baselineMapped[class]
	if !ok {
		a.baselineMapped[class] = mapped
		return
	}
	if mapped != base {
		a.r.failf("%s: mapped bytes drifted across %s rewind cycles: %d, baseline %d",
			label, class, mapped, base)
	}
}

// checkDiscarded verifies that a discarded domain's heap pages really
// left the address space: a rewind must either unmap the corrupted heap
// or park it — scrubbed — in the library's reuse pool. Any page still
// resident outside the pool is a residual mapping an attacker could
// revisit. (The library audit separately proves pooled regions were
// scrubbed when scrub-on-discard is on.)
func (a *auditor) checkDiscarded(label string, heap region) {
	for off := uint64(0); off < heap.size; off += mem.PageSize {
		addr := heap.base + mem.Addr(off)
		if _, _, ok := a.as.PageInfo(addr); !ok || a.lib.HeapPooled(addr) {
			continue
		}
		a.r.failf("%s: residual mapping: discarded heap page 0x%x still mapped", label, uint64(addr))
		return
	}
}
