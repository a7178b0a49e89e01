package core

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"sdrad/internal/mem"
	"sdrad/internal/policy"
	"sdrad/internal/proc"
	"sdrad/internal/telemetry"
)

// policyLib builds a library with telemetry and a tight-threshold policy
// engine on a manual clock, so escalation is a pure function of the
// fault schedule.
func policyLib(t *testing.T) (*proc.Process, *Library, *policy.Engine, *policy.ManualClock, *telemetry.Recorder) {
	t.Helper()
	clk := &policy.ManualClock{}
	eng := policy.New(policy.Config{
		Window:              time.Second,
		BackoffThreshold:    2,
		QuarantineThreshold: 4,
		ShedThreshold:       6,
		BackoffBase:         10 * time.Millisecond,
		BackoffMax:          40 * time.Millisecond,
		Cooldown:            100 * time.Millisecond,
		Clock:               clk.Now,
	})
	rec := telemetry.New(telemetry.Options{TransitionSampleShift: -1})
	p, l := newLib(t, WithTelemetry(rec), WithPolicy(eng))
	return p, l, eng, clk, rec
}

// TestPolicyConsultedOnRewind: the monitor consults the engine after
// every absorbed rewind, stamps the decision into the forensics report,
// and emits a policy flight event attributed to the victim thread.
func TestPolicyConsultedOnRewind(t *testing.T) {
	p, l, eng, _, rec := policyLib(t)
	run(t, p, func(th *proc.Thread) error {
		var abn *AbnormalExit
		if err := faultGuard(t, l, th, 0xDEAD0000, true); !errors.As(err, &abn) {
			t.Fatalf("first fault: err = %v, want AbnormalExit", err)
		}
		rep, ok := rec.Forensics().Last()
		if !ok {
			t.Fatal("no forensics report")
		}
		if rep.PolicyState != "healthy" || rep.PolicyAction != "rewind" || rep.PolicyWindowCount != 1 {
			t.Errorf("report policy fields = %q/%q/%d, want healthy/rewind/1",
				rep.PolicyState, rep.PolicyAction, rep.PolicyWindowCount)
		}
		// Second fault crosses the backoff threshold (2-in-window).
		if err := faultGuard(t, l, th, 0xDEAD0000, true); !errors.As(err, &abn) {
			t.Fatalf("second fault: err = %v, want AbnormalExit", err)
		}
		rep, _ = rec.Forensics().Last()
		if rep.PolicyState != "backoff" || rep.PolicyAction != "backoff" || rep.PolicyWindowCount != 2 {
			t.Errorf("escalated report = %q/%q/%d, want backoff/backoff/2",
				rep.PolicyState, rep.PolicyAction, rep.PolicyWindowCount)
		}
		if rep.PolicyRetryAfterNs != int64(10*time.Millisecond) {
			t.Errorf("retry-after = %d, want 10ms", rep.PolicyRetryAfterNs)
		}
		// The flight recorder saw one policy event per rewind, with the
		// victim thread attached.
		var policyEvents int
		for _, ev := range rec.Flight().Snapshot() {
			if ev.Kind == "policy" {
				policyEvents++
				if ev.Thread != th.ID() || ev.UDI != 1 {
					t.Errorf("policy event tid/udi = %d/%d, want %d/1", ev.Thread, ev.UDI, th.ID())
				}
			}
		}
		if policyEvents != 2 {
			t.Errorf("policy flight events = %d, want 2", policyEvents)
		}
		if snaps := eng.Snapshot(); len(snaps) != 1 || snaps[0].TotalRewinds != 2 {
			t.Errorf("engine snapshot = %+v, want one domain with 2 rewinds", snaps)
		}
		return nil
	})
}

// TestPolicyDeniesReInit: once the domain is in a hold-off, the next
// Guard is refused at InitDomain with a QuarantineError, and admission
// reopens after the hold-off expires on the engine clock.
func TestPolicyDeniesReInit(t *testing.T) {
	p, l, _, clk, _ := policyLib(t)
	run(t, p, func(th *proc.Thread) error {
		for i := 0; i < 2; i++ {
			var abn *AbnormalExit
			if err := faultGuard(t, l, th, 0xDEAD0000, true); !errors.As(err, &abn) {
				t.Fatalf("fault %d: err = %v, want AbnormalExit", i, err)
			}
		}
		// Backoff hold-off (10ms) is running: re-init denied.
		err := faultGuard(t, l, th, 0xDEAD0000, false)
		if !errors.Is(err, ErrDomainQuarantined) {
			t.Fatalf("held-off guard err = %v, want ErrDomainQuarantined", err)
		}
		var qe *QuarantineError
		if !errors.As(err, &qe) {
			t.Fatalf("err %v does not unwrap to *QuarantineError", err)
		}
		if qe.UDI != 1 || qe.State != policy.StateBackoff {
			t.Errorf("quarantine error = %+v, want UDI 1 backoff", qe)
		}
		if qe.RetryAfterNs <= 0 || qe.RetryAfterNs > int64(10*time.Millisecond) {
			t.Errorf("retry-after = %d, want (0, 10ms]", qe.RetryAfterNs)
		}
		// Denial leaves no domain state behind: after the hold-off the
		// same Guard succeeds.
		clk.Advance(20 * time.Millisecond)
		if err := faultGuard(t, l, th, 0xDEAD0000, false); err != nil {
			t.Fatalf("readmitted guard err = %v, want nil", err)
		}
		return nil
	})
}

// TestGuardAdmitsLiveDomain: a live domain whose UDI is held off is
// refused at Guard — no body, no rewind, no forensics report — and once
// the hold-off expires the next Guard runs on the same domain, its heap
// intact.
func TestGuardAdmitsLiveDomain(t *testing.T) {
	p, l, eng, clk, rec := policyLib(t)
	run(t, p, func(th *proc.Thread) error {
		var buf mem.Addr
		if err := l.Guard(th, 1, func() error {
			var err error
			if buf, err = l.Malloc(th, 1, 64); err != nil {
				return err
			}
			th.CPU().WriteU64(buf, 0x5EED)
			return nil
		}, Accessible()); err != nil {
			return err
		}
		inits := l.Stats().Inits.Load()
		// Rewinds reported straight to the engine, up to the threshold,
		// hold the live domain off without a fault of its own.
		var hold policy.Decision
		for i := 0; i < eng.Config().BackoffThreshold; i++ {
			hold = eng.OnRewind(1)
		}
		err := l.Guard(th, 1, func() error {
			t.Error("a held-off scope ran its body")
			return nil
		})
		var qe *QuarantineError
		if !errors.As(err, &qe) || qe.UDI != 1 || qe.State != policy.StateBackoff || qe.RetryAfterNs != hold.RetryAfterNs {
			t.Fatalf("held-off guard err = %v, want a backoff QuarantineError for UDI 1", err)
		}
		if n := l.Stats().Rewinds.Load(); n != 0 {
			t.Errorf("refusal counted %d rewinds", n)
		}
		if n := rec.Forensics().Added(); n != 0 {
			t.Errorf("refusal wrote %d forensics reports", n)
		}
		clk.Advance(time.Duration(hold.RetryAfterNs))
		var got uint64
		if err := l.Guard(th, 1, func() error {
			got = th.CPU().ReadU64(buf)
			return nil
		}); err != nil {
			t.Fatalf("readmitted guard err = %v", err)
		}
		if got != 0x5EED {
			t.Errorf("heap word after readmission = %#x, want 0x5eed", got)
		}
		if n := l.Stats().Inits.Load(); n != inits {
			t.Errorf("readmission re-created the domain (%d inits, want %d)", n, inits)
		}
		return nil
	})
}

// TestPolicyExemptsDataDomains: data domains hold state, not execution —
// they never rewind, so admission control does not apply.
func TestPolicyExemptsDataDomains(t *testing.T) {
	p, l, eng, _, _ := policyLib(t)
	run(t, p, func(th *proc.Thread) error {
		// Drive UDI 2's execution-domain record into backoff via the
		// shared engine (the engine keys by UDI, not domain kind).
		eng.OnRewind(2)
		eng.OnRewind(2)
		if dec := eng.Admit(2); dec.Allowed() {
			t.Fatal("expected UDI 2 to be in a hold-off")
		}
		if err := l.InitDomain(th, 2, AsData()); err != nil {
			t.Fatalf("data-domain init err = %v, want nil (policy exempt)", err)
		}
		return nil
	})
}

// TestPolicyDisabledBitIdentical: with no engine configured the policy
// hook must be invisible — the same fault schedule produces
// bit-identical forensics (timestamps excepted) and stats whether the
// library was built without WithPolicy or with WithPolicy(nil).
func TestPolicyDisabledBitIdentical(t *testing.T) {
	type outcome struct {
		reports []telemetry.RewindReport
		rewinds int64
		errs    []string
	}
	runSchedule := func(opts ...SetupOption) outcome {
		rec := telemetry.New(telemetry.Options{TransitionSampleShift: -1})
		p, l := newLib(t, append([]SetupOption{WithTelemetry(rec)}, opts...)...)
		var out outcome
		run(t, p, func(th *proc.Thread) error {
			// Mixed schedule: faults, clean rounds, a fault in a second
			// domain.
			schedule := []struct {
				udi   UDI
				fault bool
			}{{1, true}, {1, false}, {1, true}, {1, true}, {1, false}}
			for _, s := range schedule {
				err := faultGuard(t, l, th, 0xDEAD0000, s.fault)
				if err != nil {
					out.errs = append(out.errs, err.Error())
				} else {
					out.errs = append(out.errs, "")
				}
				_ = s.udi
			}
			return nil
		})
		out.rewinds = l.Stats().Rewinds.Load()
		out.reports = rec.Forensics().Reports()
		for i := range out.reports {
			out.reports[i].TimeNs = 0 // wall-clock, not schedule-determined
		}
		return out
	}

	base := runSchedule()
	nilPolicy := runSchedule(WithPolicy(nil))
	if !reflect.DeepEqual(base, nilPolicy) {
		t.Errorf("WithPolicy(nil) diverged from no-policy baseline:\nbase: %+v\nnil:  %+v", base, nilPolicy)
	}
	for _, rep := range base.reports {
		if rep.PolicyState != "" || rep.PolicyAction != "" {
			t.Errorf("policy fields set without a policy: %+v", rep)
		}
	}
	if base.rewinds != 3 {
		t.Errorf("baseline rewinds = %d, want 3", base.rewinds)
	}
}

// TestPolicyLadderWhileASiblingServes walks domain 1 up the whole
// escalation ladder on the engine's manual clock — rewind, backoff,
// quarantine, a probation readmit that faults again, shedding — and checks
// at every rung: the monitor consulted the engine on each rewind, and the
// decision is in its forensics report and in one policy flight event of
// the victim thread; a denial is a *QuarantineError for domain 1 with the
// rung's state and hold-off, and no rewind (no report, no fault logged);
// once a hold-off is over the domain is admitted again; the audit is
// clean; and a sibling domain of the same library serves throughout.
func TestPolicyLadderWhileASiblingServes(t *testing.T) {
	const sibling = UDI(5)
	p, l, eng, clk, rec := policyLib(t)
	ms := time.Millisecond
	steps := []struct {
		wait   time.Duration // clock advance before the step
		fault  bool          // a faulting scope, else a clean one
		state  string
		action string // a rewind's action; "" for a denial
		window int
		retry  time.Duration // the decision's hold-off
	}{
		{0, true, "healthy", "rewind", 1, 0},
		{0, true, "backoff", "backoff", 2, 10 * ms},
		{0, false, "backoff", "", 0, 10 * ms},
		{10 * ms, true, "backoff", "backoff", 3, 20 * ms}, // the hold-off is over
		{0, false, "backoff", "", 0, 20 * ms},
		{20 * ms, true, "quarantined", "quarantine", 4, 100 * ms},
		{0, false, "quarantined", "", 0, 100 * ms},
		{50 * ms, false, "quarantined", "", 0, 50 * ms},
		{50 * ms, true, "quarantined", "quarantine", 5, 100 * ms}, // probation violated
		{100 * ms, true, "shedding", "shed", 6, 0},
		{0, false, "shedding", "", 0, 0},
		{time.Hour, false, "shedding", "", 0, 0}, // shedding is for good
	}
	run(t, p, func(th *proc.Thread) error {
		as := p.AddressSpace()
		for i, s := range steps {
			clk.Advance(s.wait)
			rewinds, reports, faults := l.Stats().Rewinds.Load(), rec.Forensics().Added(), as.FaultSeq()
			err := faultGuard(t, l, th, 0xDEAD0000, s.fault)
			var abn *AbnormalExit
			var qe *QuarantineError
			switch rep, _ := rec.Forensics().Last(); {
			case s.action != "":
				if !errors.As(err, &abn) || abn.FailedUDI != 1 || rep.SiCode != abn.Code || rep.Addr != abn.Addr {
					t.Fatalf("step %d: %v (report %s at %#x), want an abnormal exit of domain 1", i, err, rep.SiCodeName, rep.Addr)
				}
				if rep.PolicyState != s.state || rep.PolicyAction != s.action || rep.PolicyWindowCount != s.window ||
					rep.PolicyRetryAfterNs != int64(s.retry) {
					t.Errorf("step %d: decision %s/%s/%d/%dns, want %s/%s/%d/%v", i, rep.PolicyState,
						rep.PolicyAction, rep.PolicyWindowCount, rep.PolicyRetryAfterNs, s.state, s.action, s.window, s.retry)
				}
				rewinds, reports, faults = rewinds+1, reports+1, faults+1
			case !errors.Is(err, ErrDomainQuarantined) || !errors.As(err, &qe) || qe.UDI != 1:
				t.Fatalf("step %d: %v, want ErrDomainQuarantined for domain 1", i, err)
			case qe.State.String() != s.state || qe.RetryAfterNs != int64(s.retry):
				t.Errorf("step %d: denied by %s for %dns, want %s for %v", i, qe.State, qe.RetryAfterNs, s.state, s.retry)
			}
			if l.Stats().Rewinds.Load() != rewinds || rec.Forensics().Added() != reports || as.FaultSeq() != faults {
				t.Errorf("step %d: %d rewinds, %d reports, %d faults; want %d, %d, %d", i,
					l.Stats().Rewinds.Load(), rec.Forensics().Added(), as.FaultSeq(), rewinds, reports, faults)
			}
			if rep := l.Audit(th); !rep.Ok() {
				t.Errorf("step %d: audit: %v", i, rep.Findings)
			}
			if err := l.Guard(th, sibling, func() error {
				buf, err := l.Malloc(th, sibling, 64)
				if err != nil {
					return err
				}
				if err := l.Enter(th, sibling); err != nil {
					return err
				}
				th.CPU().WriteU64(buf, uint64(i))
				return l.Exit(th)
			}, Accessible()); err != nil {
				t.Errorf("step %d: the sibling's scope: %v", i, err)
			}
		}
		snaps := eng.Snapshot()
		if len(snaps) != 1 || snaps[0].UDI != 1 || snaps[0].State != "shedding" || snaps[0].TotalRewinds != 6 {
			t.Errorf("engine snapshot %+v, want domain 1 shedding after 6 rewinds", snaps)
		}
		n := 0 // the engine records its denials too, with no thread
		for _, ev := range rec.Flight().Snapshot() {
			if ev.Kind == "policy" && ev.Thread == th.ID() {
				if n++; ev.UDI != 1 {
					t.Errorf("policy flight event of domain %d, want 1", ev.UDI)
				}
			}
		}
		if n != 6 {
			t.Errorf("%d policy flight events of the victim thread, want one per rewind", n)
		}
		return nil
	})
}
