package core

import (
	"sdrad/internal/proc"
	"sdrad/internal/sig"
	"sdrad/internal/telemetry"
)

// rewindPanic is the unwinding value that carries an abnormal domain exit
// from the point of detection to its recovery scope — the simulation's
// longjmp. It is created exclusively by the reference monitor's trap
// handler and consumed by the Guard whose scope it targets.
type rewindPanic struct {
	scope uint64
	exit  *AbnormalExit
}

// Guard establishes a recovery point for domain udi and runs body.
//
// It is the Go realization of the sdrad_init() double-return semantics
// (see the package comment): the scope is admitted by the resilience
// policy, if one is attached (a denial returns a *QuarantineError and runs
// nothing); the domain is created with opts (or re-validated, for the
// persistent pattern where a previous Guard deinitialized its context);
// body runs — typically allocating arguments in the domain, entering it,
// invoking the isolated function, and exiting — and then:
//
//   - on normal completion, Guard returns body's error and invalidates the
//     domain's recovery context (the automatic analog of the paper's rule
//     that a domain must be destroyed or deinitialized before the function
//     that initialized it returns);
//   - on an abnormal domain exit targeting this recovery point, Guard
//     returns an *AbnormalExit describing the failed domain;
//   - on an abnormal exit targeting an outer recovery point
//     (handler-at-grandparent), Guard performs its bookkeeping and lets
//     the rewind continue unwinding.
//
// The domain itself persists across Guards unless destroyed: call Destroy
// inside or after body for the transient pattern, or re-Guard the same
// udi for the persistent pattern.
func (l *Library) Guard(t *proc.Thread, udi UDI, body func() error, opts ...InitOption) error {
	ts := l.state(t)
	d, ok := ts.lookup(udi)
	switch {
	case ok && d.contextValid:
		return ErrAlreadyInit
	case ok:
		if d.parent != ts.current {
			return ErrNotChild
		}
		if err := l.admit(udi); err != nil {
			return err
		}
	default:
		if err := l.InitDomain(t, udi, opts...); err != nil {
			return err
		}
		d, _ = ts.lookup(udi)
	}
	scope := ts.newScope()
	l.monitorEnter(t)
	d.scopeID = scope
	d.contextValid = true
	d.savedMask = t.SigMask()
	l.monitorExit(t)
	return l.runGuarded(t, ts, d, scope, body)
}

// runGuarded executes body under the recovery scope.
func (l *Library) runGuarded(t *proc.Thread, ts *threadState, d *Domain, scope uint64, body func() error) (err error) {
	// The scope ends with this frame: whatever happens, the domain's
	// recovery context is no longer valid afterwards (auto-Deinit). This
	// must run after the recovery handling below, which still needs the
	// context to attribute traps. A domain destroyed or discarded inside
	// the scope is already invalid (releaseDomain), and Domain objects are
	// never reused, so the store needs no liveness check.
	defer func() { d.contextValid = false }()
	defer func() {
		r := recover()
		if r == nil {
			// Normal completion: if body forgot to exit the domain, do
			// the bookkeeping so the thread is back in the parent.
			if ts.current == d {
				l.closeScope(t, ts, d, false)
			}
			return
		}
		rp, ok := r.(*rewindPanic)
		if !ok {
			info, isTrap := proc.TrapToSignal(r)
			if !isTrap {
				panic(r)
			}
			// Innermost guard: play the SDRaD signal handler.
			var fatal bool
			if rp, fatal = l.handleTrap(t, ts, info, r); fatal {
				// Root-domain fault or no reachable recovery point: the
				// raw trap continues to the process supervisor, which
				// terminates the process (default SIGSEGV disposition).
				panic(r)
			}
		}
		target := rp.scope == scope
		l.closeScope(t, ts, d, target)
		if !target {
			// Handler-at-grandparent: the rewind continues to an outer
			// Guard.
			panic(rp)
		}
		err = rp.exit
	}()
	return body()
}

// handleTrap is the simulation's SDRaD SIGSEGV/stack-protector handler:
// it attributes the trap to the currently executing domain and, if that
// domain is nested and guarded, performs the abnormal-exit sequence
// (paper Figure 1, steps 11-14):
//
//	⑪ halt the domain, restore the privileges of the parent domain,
//	⑫ restore the calling environment (here: aim the rewind at the
//	   recovery scope of the failing domain, or of its parent when
//	   handler-at-grandparent was requested),
//	⑬ delete the failing domain and the domains it created, and discard
//	   their memory,
//	⑭ (the Guard then transfers control to the caller's error handling).
//
// It returns fatal=true when the trap cannot be recovered: SIGSEGV is
// blocked in the thread's mask, the thread was executing in the root
// domain, no valid recovery context exists, or the rewind budget is spent.
func (l *Library) handleTrap(t *proc.Thread, ts *threadState, info sig.Info, cause any) (rp *rewindPanic, fatal bool) {
	// A synchronous fault with the signal blocked is fatal: the kernel
	// never runs the handler for it.
	if info.Signal == sig.SIGSEGV && t.SigMask().Has(sig.SIGSEGV) {
		return nil, true
	}
	failing := ts.current
	if failing.isRoot() {
		return nil, true
	}
	if !failing.contextValid {
		return nil, true
	}
	targetScope := failing.scopeID
	if failing.handlerAtGrandparent {
		parent := failing.parent
		if parent == nil || parent.isRoot() || !parent.contextValid {
			return nil, true
		}
		targetScope = parent.scopeID
	}

	// Forensics capture must precede the discard: the enter stack, the
	// heap region, and its live-allocation count are the evidence the
	// rewind is about to destroy.
	rec := l.tel.Load()
	var rep telemetry.RewindReport
	if rec != nil {
		rep = buildRewindReport(t, ts, failing, info, cause, l.rewindLimit)
	}

	// ⑪ restore the parent's execution: pop the enter record for the
	// failing domain if it was entered.
	l.monitorEnter(t)
	ts.leave(failing)
	// Revoke the thread's span leases before the discard frees or recycles
	// the failing domain's memory: nothing issued inside the discarded
	// scope may survive the rewind.
	t.CPU().InvalidateLeases()
	// ⑬ delete the domain and the domains it created, discard their
	// memory (never merged: corrupted).
	l.discardDomain(t, append(ts.descendants(failing), failing)...)
	seq := l.stats.Rewinds.Add(1)
	l.monitorExit(t)

	// Resilience-policy consultation (Unlimited Lives): the engine
	// records the rewind in the failing UDI's sliding window and decides
	// whether this component keeps its immediate-re-init privilege,
	// enters backoff, is quarantined, or sheds load. The decision is
	// part of the rewind's post-mortem.
	if l.policy != nil {
		dec := l.policy.OnRewind(int(failing.udi))
		if rec != nil {
			rep.PolicyState = dec.State.String()
			rep.PolicyAction = dec.Action.String()
			rep.PolicyWindowCount = dec.WindowCount
			rep.PolicyRetryAfterNs = dec.RetryAfterNs
			rec.RecordPolicy(t.ID(), int(failing.udi), int(dec.State), int(dec.Action), uint64(dec.WindowCount))
		}
	}
	if rec != nil {
		rep.Seq = seq
		rep.RewindCount = seq
		rec.RecordRewind(rep)
	}
	if l.onRewind != nil {
		l.onRewind(RewindEvent{
			Seq:        seq,
			ThreadID:   t.ID(),
			ThreadName: t.Name(),
			FailedUDI:  failing.udi,
			Signal:     info.Signal,
			Code:       info.Code,
			Addr:       info.Addr,
			PKey:       info.PKey,
		})
	}
	// Rewind budget exhausted: stop absorbing and let the process die,
	// forcing the restart that re-randomizes probabilistic defenses.
	if l.rewindLimit > 0 && seq >= l.rewindLimit {
		return nil, true
	}

	errCause, _ := cause.(error)
	return &rewindPanic{
		scope: targetScope,
		exit: &AbnormalExit{
			FailedUDI: failing.udi,
			Signal:    info.Signal,
			Code:      info.Code,
			Addr:      info.Addr,
			PKey:      info.PKey,
			Cause:     errCause,
		},
	}, false
}

// closeScope ends a Guard scope the thread leaves other than through
// Exit: by a rewind to this Guard (target), by a rewind passing through
// it to an outer one, or by a body that returned without calling Exit. A
// domain still entered is exited; its state is preserved — the paper
// leaves destroying intermediate persistent domains to the developer's
// error handler. The rewind's target also restores the signal mask saved
// at the Guard (sigsetjmp/siglongjmp semantics). Every way out revokes
// the thread's span leases.
func (l *Library) closeScope(t *proc.Thread, ts *threadState, d *Domain, target bool) {
	l.monitorEnter(t)
	ts.leave(d)
	if target {
		t.SetSigMask(d.savedMask)
	}
	t.CPU().InvalidateLeases()
	l.monitorExit(t)
}
