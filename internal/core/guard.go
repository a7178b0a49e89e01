package core

import (
	"sdrad/internal/mem"
	"sdrad/internal/proc"
	"sdrad/internal/sig"
	"sdrad/internal/stack"
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
// (see the package comment): the domain is created (or re-validated, for
// the persistent pattern where a previous Guard deinitialized its
// context), body runs — typically allocating arguments in the domain,
// entering it, invoking the isolated function, and exiting — and then:
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
				l.forceExit(t, ts, d)
			}
			return
		}
		switch v := r.(type) {
		case *rewindPanic:
			if v.scope == scope {
				l.finishRewind(t, ts, d)
				err = v.exit
				return
			}
			l.unwindThrough(t, ts, d)
			panic(v)
		default:
			info, isTrap := trapInfo(r)
			if !isTrap {
				panic(r)
			}
			// Innermost guard: play the SDRaD signal handler.
			rp, fatal := l.handleTrap(t, ts, info, r)
			if fatal {
				// Root-domain fault or no reachable recovery point: the
				// raw trap continues to the process supervisor, which
				// terminates the process (default SIGSEGV disposition).
				panic(r)
			}
			if rp.scope == scope {
				l.finishRewind(t, ts, d)
				err = rp.exit
				return
			}
			l.unwindThrough(t, ts, d)
			panic(rp)
		}
	}()
	return body()
}

// trapInfo classifies a recovered panic value as a simulated trap.
func trapInfo(r any) (sig.Info, bool) {
	switch v := r.(type) {
	case *mem.Fault:
		return sig.Info{
			Signal: sig.SIGSEGV,
			Code:   int(v.Code),
			Addr:   uint64(v.Addr),
			PKey:   v.PKey,
			Cause:  v,
		}, true
	case *stack.SmashError:
		return sig.Info{Signal: sig.SIGABRT, Addr: uint64(v.CanaryAddr), Cause: v}, true
	default:
		return sig.Info{}, false
	}
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
//	⑬ delete the failing domain and discard its memory,
//	⑭ (the Guard then transfers control to the caller's error handling).
//
// It returns fatal=true when the trap cannot be recovered: the thread was
// executing in the root domain, or no valid recovery context exists.
func (l *Library) handleTrap(t *proc.Thread, ts *threadState, info sig.Info, cause any) (rp *rewindPanic, fatal bool) {
	// A synchronous fault with the signal blocked is fatal (sig package
	// semantics); replicate the check the kernel would perform.
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
	if n := len(ts.enterStack); n > 0 && ts.enterStack[n-1].entered == failing {
		ts.current = ts.enterStack[n-1].prev
		ts.enterStack = ts.enterStack[:n-1]
		failing.entered = false
	}
	// Revoke the thread's span leases before the discard frees or recycles
	// the failing domain's memory: nothing issued inside the discarded
	// scope may survive the rewind.
	t.CPU().InvalidateLeases()
	// ⑬ delete the domain, discard its memory (never merged: corrupted).
	l.discardDomain(t, failing)
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

// finishRewind completes a rewind at its target Guard: execution resumes
// in the guarded domain's parent with the signal mask saved at
// initialization restored (sigsetjmp/siglongjmp semantics).
func (l *Library) finishRewind(t *proc.Thread, ts *threadState, d *Domain) {
	l.monitorEnter(t)
	// If the guarded domain was still entered when the rewind started
	// deeper inside it (handler-at-grandparent), exit it now.
	if ts.current == d {
		if n := len(ts.enterStack); n > 0 && ts.enterStack[n-1].entered == d {
			ts.current = ts.enterStack[n-1].prev
			ts.enterStack = ts.enterStack[:n-1]
			d.entered = false
			d.stk.Reset()
		}
	}
	t.SetSigMask(d.savedMask)
	t.CPU().InvalidateLeases()
	l.monitorExit(t)
}

// unwindThrough performs the bookkeeping for a Guard a rewind passes
// through: if the guard's domain is still the current one it is exited
// (its state is preserved — the paper leaves destroying intermediate
// persistent domains to the developer's error handler).
func (l *Library) unwindThrough(t *proc.Thread, ts *threadState, d *Domain) {
	l.monitorEnter(t)
	if ts.current == d {
		if n := len(ts.enterStack); n > 0 && ts.enterStack[n-1].entered == d {
			ts.current = ts.enterStack[n-1].prev
			ts.enterStack = ts.enterStack[:n-1]
			d.entered = false
			if d.stk != nil {
				d.stk.Reset()
			}
		}
	}
	t.CPU().InvalidateLeases()
	l.monitorExit(t)
}

// forceExit restores the parent domain when body returned without calling
// Exit.
func (l *Library) forceExit(t *proc.Thread, ts *threadState, d *Domain) {
	l.monitorEnter(t)
	if n := len(ts.enterStack); n > 0 && ts.enterStack[n-1].entered == d {
		ts.current = ts.enterStack[n-1].prev
		ts.enterStack = ts.enterStack[:n-1]
		d.entered = false
		d.stk.Reset()
	}
	t.CPU().InvalidateLeases()
	l.monitorExit(t)
}
