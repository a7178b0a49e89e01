package chaos

import (
	"errors"
	"fmt"
	"time"

	"sdrad/internal/core"
	"sdrad/internal/memcache"
	"sdrad/internal/policy"
	"sdrad/internal/sig"
)

// policyCampaignConfig is the tight ladder both phases use: 2 rewinds in
// the window trip backoff, 4 quarantine, 6 shedding; 10ms base hold-off
// capped at 40ms; 100ms cool-down. On the manual clock the walk is a
// pure function of the schedule below.
func policyCampaignConfig(clk *policy.ManualClock, shedThreshold int) policy.Config {
	return policy.Config{
		Window:              time.Second,
		BackoffThreshold:    2,
		QuarantineThreshold: 4,
		ShedThreshold:       shedThreshold,
		BackoffBase:         10 * time.Millisecond,
		BackoffMax:          40 * time.Millisecond,
		Cooldown:            100 * time.Millisecond,
		Clock:               clk.Now,
	}
}

// runPolicyCampaign walks the resilience-policy escalation ladder end to
// end, twice:
//
// Phase core: one victim domain is hammered with unmapped-write faults
// on a manual clock until the engine walks it rewind → backoff →
// quarantine → shedding, asserting every decision (state, action,
// window count, hold-off) along the way, that denied re-initializations
// surface as core.ErrDomainQuarantined WITHOUT producing rewinds or
// forensics reports, and that a sibling domain in the same library
// keeps serving at every rung.
//
// Phase memcache: the hardened server with an attached engine absorbs
// repeated binary-set overflows until the event domain is quarantined,
// proving the degraded path (gets answered as misses, mutations refused
// with SERVER_ERROR, no guard scope touched) and the cool-down readmit
// that restores full service — with the stored data intact, because the
// degraded path never touched the shared database.
func runPolicyCampaign(cfg Config, r *Report) error {
	if err := runPolicyCore(cfg, r); err != nil {
		return err
	}
	return runPolicyMemcache(cfg, r)
}

func runPolicyCore(cfg Config, r *Report) error {
	const (
		victimUDI  = core.UDI(4)
		siblingUDI = core.UDI(5)
	)
	clk := &policy.ManualClock{}
	eng := policy.New(policyCampaignConfig(clk, 6))
	return runCoreCampaign(cfg, r, func(env *coreEnv) error {
		t, lib, c := env.t, env.lib, env.t.CPU()

		// fault provokes one absorbed rewind of the victim and asserts
		// the policy decision stamped into its forensics report.
		fault := func(step int, wantState, wantAction string, wantWin int) {
			label := fmt.Sprintf("step=%02d fault", step)
			b := env.before()
			gerr := lib.Guard(t, victimUDI, func() error {
				if _, err := lib.Malloc(t, victimUDI, 64); err != nil {
					return err
				}
				if err := lib.Enter(t, victimUDI); err != nil {
					return err
				}
				c.WriteU8(0xDEAD0000, 1)
				return errNoFault
			}, core.Accessible())
			env.exited(label, b, gerr, victimUDI, sig.SIGSEGV, false)
			rep, _ := env.rec.Forensics().Last()
			if rep.PolicyState != wantState || rep.PolicyAction != wantAction || rep.PolicyWindowCount != wantWin {
				r.failf("%s: policy decision %s/%s/%d, want %s/%s/%d", label,
					rep.PolicyState, rep.PolicyAction, rep.PolicyWindowCount,
					wantState, wantAction, wantWin)
			}
			env.auditOn(t, label)
			r.event("%s state=%s action=%s window=%d", label, rep.PolicyState, rep.PolicyAction, rep.PolicyWindowCount)
		}

		// denied asserts the victim's re-initialization is refused — and
		// that the refusal is not a rewind: no rewind count, no
		// forensics report, no leftover domain state.
		denied := func(step int, wantState string, wantRetryNs int64) {
			label := fmt.Sprintf("step=%02d denied", step)
			b := env.before()
			gerr := lib.Guard(t, victimUDI, func() error { return lib.Exit(t) }, core.Accessible())
			var qe *core.QuarantineError
			if !errors.Is(gerr, core.ErrDomainQuarantined) || !errors.As(gerr, &qe) {
				r.failf("%s: guard returned %v, want ErrDomainQuarantined", label, gerr)
				return
			}
			if qe.State.String() != wantState {
				r.failf("%s: denial state %s, want %s", label, qe.State, wantState)
			}
			if qe.RetryAfterNs != wantRetryNs {
				r.failf("%s: retry-after %dns, want %dns", label, qe.RetryAfterNs, wantRetryNs)
			}
			env.calm(label, b)
			env.auditOn(t, label)
			r.event("%s state=%s retry=%dns", label, qe.State, qe.RetryAfterNs)
		}

		// sibling proves an unrelated domain in the same library is
		// untouched by the victim's ladder position.
		sibling := func(step int) {
			label := fmt.Sprintf("step=%02d sibling", step)
			gerr := lib.Guard(t, siblingUDI, func() error {
				buf, err := lib.Malloc(t, siblingUDI, 64)
				if err != nil {
					return err
				}
				if err := lib.Enter(t, siblingUDI); err != nil {
					return err
				}
				c.WriteU64(buf, uint64(step))
				return lib.Exit(t)
			}, core.Accessible())
			if gerr != nil {
				r.failf("%s: sibling guard failed: %v", label, gerr)
				return
			}
			r.event("%s ok", label)
		}

		ms := func(n int) int64 { return int64(n) * int64(time.Millisecond) }

		fault(0, "healthy", "rewind", 1) // within budget
		sibling(1)
		fault(2, "backoff", "backoff", 2) // trips backoff, hold-off 10ms
		denied(3, "backoff", ms(10))
		sibling(4)
		clk.Advance(10 * time.Millisecond) // hold-off expires
		fault(5, "backoff", "backoff", 3)  // readmitted, faults again: step 2, 20ms
		denied(6, "backoff", ms(20))
		clk.Advance(20 * time.Millisecond)
		fault(7, "quarantined", "quarantine", 4) // crosses the quarantine threshold
		denied(8, "quarantined", ms(100))
		sibling(9)
		clk.Advance(50 * time.Millisecond) // half the cool-down: still denied
		denied(10, "quarantined", ms(50))
		clk.Advance(50 * time.Millisecond)        // cool-down over: probation readmit
		fault(11, "quarantined", "quarantine", 5) // probation violated: re-quarantined
		clk.Advance(100 * time.Millisecond)
		fault(12, "shedding", "shed", 6) // crosses the shed threshold
		denied(13, "shedding", 0)
		clk.Advance(time.Hour) // shedding is permanent
		denied(14, "shedding", 0)
		sibling(15)

		snaps := eng.Snapshot()
		if len(snaps) != 1 || snaps[0].UDI != int(victimUDI) {
			r.failf("engine snapshot: %+v, want exactly the victim domain", snaps)
		} else {
			s := snaps[0]
			if s.State != "shedding" || s.TotalRewinds != 6 {
				r.failf("final victim snapshot: %+v, want shedding after 6 rewinds", s)
			}
			r.event("final state=%s rewinds=%d escalations=%d", s.State, s.TotalRewinds, s.Escalations)
		}
		if cfg.PolicySink != nil {
			cfg.PolicySink("core", snaps)
		}
		return nil
	}, core.WithPolicy(eng))
}

func runPolicyMemcache(cfg Config, r *Report) error {
	clk := &policy.ManualClock{}
	// Shedding disabled: this phase ends with the service recovered.
	eng := policy.New(policyCampaignConfig(clk, -1))
	w, s, err := newMemcache(cfg, r, memcache.Config{Policy: eng})
	if err != nil {
		return err
	}
	defer s.Stop()
	if err := w.persist([]byte("survives-quarantine")); err != nil {
		return err
	}

	// expect sends a request and asserts the deterministic response class.
	expect := func(step int, what string, req []byte, wantClass string) {
		label := fmt.Sprintf("mc=%02d %s", step, what)
		resp, closed := w.do(req)
		class := respClass(resp, closed)
		if class != wantClass {
			r.failf("%s: response %q (closed=%v), want %s", label, resp, closed, wantClass)
		}
		r.event("%s %s", label, class)
	}

	// attack provokes one absorbed rewind of the event domain via the
	// binary-set overflow; the rewind closes the connection.
	attack := func(step int) {
		label := fmt.Sprintf("mc=%02d attack", step)
		rep := w.trap(label, memcache.FormatBSet("atk", 1<<20, nil), false)
		w.audit(label)
		r.event("%s state=%s action=%s window=%d", label, rep.PolicyState, rep.PolicyAction, rep.PolicyWindowCount)
	}

	preDegraded := s.Degraded()
	attack(0) // healthy: absorbed, immediate re-init
	expect(1, "get", memcache.FormatGet("persist"), "VALUE")
	attack(2) // trips backoff (2 rewinds in window): hold-off 10ms
	// Degraded path while held off: gets are misses, mutations refused.
	expect(3, "get-degraded", memcache.FormatGet("persist"), "END")
	expect(4, "set-degraded", memcache.FormatSet("x", []byte("y"), 0), "SERVER_ERROR")
	clk.Advance(10 * time.Millisecond) // hold-off expires: full service back
	expect(5, "get-readmitted", memcache.FormatGet("persist"), "VALUE")
	attack(6) // window count 3: backoff again (20ms)
	clk.Advance(20 * time.Millisecond)
	attack(7) // window count 4: quarantined, 100ms cool-down
	expect(8, "get-quarantined", memcache.FormatGet("persist"), "END")
	expect(9, "delete-quarantined", memcache.FormatDelete("persist"), "SERVER_ERROR")
	clk.Advance(100 * time.Millisecond) // cool-down over: probation readmit
	expect(10, "get-recovered", memcache.FormatGet("persist"), "VALUE")
	if got := s.Degraded() - preDegraded; got != 4 {
		r.failf("degraded-path requests = %d, want 4", got)
	}

	// The degraded path must not have touched the store: the persisted
	// value survived quarantine (checked via the VALUE responses above),
	// and the engine agrees on the final state.
	snaps := eng.Snapshot()
	if len(snaps) != 1 || snaps[0].State != "backoff" || snaps[0].TotalRewinds != 4 {
		r.failf("mc engine snapshot: %+v, want event domain on probation after 4 rewinds", snaps)
	} else {
		r.event("mc final state=%s rewinds=%d", snaps[0].State, snaps[0].TotalRewinds)
	}
	if cfg.PolicySink != nil {
		cfg.PolicySink("memcache", snaps)
	}
	return nil
}
