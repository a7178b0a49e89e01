package core

import (
	"errors"
	"strings"
	"testing"

	"sdrad/internal/mem"
	"sdrad/internal/proc"
	"sdrad/internal/sig"
)

// The PKRU integrity condition is one-sided: a quiescent thread's
// register may deny rights the policy grants (a sibling thread created a
// data domain the root's policy grants since this thread's last
// transition), but must never grant rights the policy denies.

// sibling starts a thread that runs each step passed to do, one at a
// time, and reports the step's error; stop ends the thread.
func sibling(t *testing.T, p *proc.Process, name string) (do func(func(*proc.Thread) error) error, stop func()) {
	steps := make(chan func(*proc.Thread) error)
	errs := make(chan error)
	h := p.Spawn(name, func(th *proc.Thread) error {
		for step := range steps {
			errs <- step(th)
		}
		return nil
	})
	do = func(step func(*proc.Thread) error) error {
		steps <- step
		return <-errs
	}
	stop = func() {
		close(steps)
		if err := h.Join(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	return do, stop
}

func TestAuditToleratesStaleRestrictivePKRU(t *testing.T) {
	p, l := newLib(t)
	run(t, p, func(th *proc.Thread) error {
		do, stop := sibling(t, p, "sibling")
		defer stop()
		before := th.CPU().PKRU()

		// A sibling's accessible execution domain is the sibling's own:
		// it does not widen this thread's root policy.
		if err := do(func(th2 *proc.Thread) error {
			return l.Guard(th2, 1, func() error { return nil }, Accessible())
		}); err != nil {
			t.Fatalf("sibling guard: %v", err)
		}
		rep := l.Audit(th)
		if rep.ExpectedPKRU != before || rep.PKRUStaleDenies != 0 || !rep.Ok() {
			t.Errorf("sibling exec domain moved this thread's policy: have 0x%08x, policy 0x%08x, stale denies 0x%08x, findings %v",
				rep.PKRU, rep.ExpectedPKRU, rep.PKRUStaleDenies, rep.Findings)
		}

		// An accessible data domain under root is global: the policy
		// widens, and this thread's register cannot have moved without a
		// transition of its own.
		if err := do(func(th2 *proc.Thread) error {
			return l.InitDomain(th2, 10, AsData(), Accessible())
		}); err != nil {
			t.Fatalf("sibling data domain: %v", err)
		}
		if got := th.CPU().PKRU(); got != before {
			t.Fatalf("register moved without a transition: 0x%08x -> 0x%08x", before, got)
		}
		rep = l.Audit(th)
		if want := mem.PKRUAllow(before, l.lookupDataDomain(10).key, true); rep.ExpectedPKRU != want {
			t.Fatalf("policy 0x%08x, want the data domain granted: 0x%08x", rep.ExpectedPKRU, want)
		}
		if !rep.Ok() {
			t.Errorf("stale-restrictive register flagged: %v", rep.Findings)
		}
		if rep.PKRUStaleDenies == 0 {
			t.Error("stale deny bits not reported")
		}
		if rep.PKRUStaleDenies&rep.ExpectedPKRU != 0 {
			t.Errorf("stale bits 0x%08x overlap policy denies 0x%08x",
				rep.PKRUStaleDenies, rep.ExpectedPKRU)
		}
		return nil
	})
}

// A thread's policy never names a sibling's execution domain: not while
// the sibling's domain lives, not after the sibling rewinds, and not
// after the freed key is recycled into a third thread's domain.
func TestSiblingExecDomainKeyNeverGranted(t *testing.T) {
	p, l := newLib(t)
	run(t, p, func(th *proc.Thread) error {
		denies := func(key int) bool {
			ad, _ := mem.PKRURights(th.CPU().PKRU(), key)
			return ad
		}
		doB, stopB := sibling(t, p, "B")
		defer stopB()
		var keyB int
		if err := doB(func(tb *proc.Thread) error {
			if err := l.Guard(tb, 1, func() error { return nil }, Accessible()); err != nil {
				return err
			}
			keyB = l.state(tb).domains[1].key
			return nil
		}); err != nil {
			t.Fatalf("B guard: %v", err)
		}
		// A monitor call installs this thread's current policy.
		l.ThreadDomains(th)
		if !denies(keyB) {
			t.Errorf("register 0x%08x grants sibling B's accessible domain key %d", th.CPU().PKRU(), keyB)
		}

		// B faults inside its domain and rewinds; the domain is discarded
		// and its key pooled. This thread makes no monitor call.
		err := doB(func(tb *proc.Thread) error {
			return l.Guard(tb, 1, func() error {
				if err := l.Enter(tb, 1); err != nil {
					return err
				}
				tb.CPU().WriteU8(0xDEAD0000, 1)
				return nil
			})
		})
		var abn *AbnormalExit
		if !errors.As(err, &abn) {
			t.Fatalf("B fault: err = %v, want AbnormalExit", err)
		}
		if rep := l.Audit(th); !rep.Ok() {
			t.Errorf("audit after sibling rewind: %v", rep.Findings)
		}

		// A third thread's inaccessible domain takes the pooled key.
		doC, stopC := sibling(t, p, "C")
		defer stopC()
		var keyC int
		if err := doC(func(tc *proc.Thread) error {
			if err := l.InitDomain(tc, 2); err != nil {
				return err
			}
			keyC = l.state(tc).domains[2].key
			return nil
		}); err != nil {
			t.Fatalf("C init: %v", err)
		}
		if keyC != keyB {
			t.Fatalf("test vacuous: C's domain got key %d, not B's recycled key %d", keyC, keyB)
		}
		if !denies(keyC) {
			t.Errorf("register 0x%08x grants key %d of C's inaccessible domain", th.CPU().PKRU(), keyC)
		}
		return nil
	})
}

func TestAuditFlagsStalePermissivePKRU(t *testing.T) {
	p, l := newLib(t)
	run(t, p, func(th *proc.Thread) error {
		// Install rights the policy denies: the monitor key is never
		// accessible from domain code.
		l.wrpkru(th, mem.PKRUAllow(th.CPU().PKRU(), l.monitorKey, true))
		rep := l.Audit(th)
		l.wrpkru(th, rep.ExpectedPKRU)
		if rep.Ok() {
			t.Fatal("register granting the monitor key passed the audit")
		}
		found := false
		for _, f := range rep.Findings {
			if len(f) >= 4 && f[:4] == "pkru" {
				found = true
			}
		}
		if !found {
			t.Errorf("no pkru finding in %v", rep.Findings)
		}
		return nil
	})
}

func TestSmashedReturnRecordCaughtWithByValueFrame(t *testing.T) {
	// The return record lives in the enter stack by value; its canary is
	// still on the domain's stack. A domain that clobbers it is reported
	// by a mid-scope audit and caught by Exit, and the record's storage
	// serves the next scope.
	p, l := newLib(t)
	run(t, p, func(th *proc.Thread) error {
		err := l.Guard(th, 1, func() error {
			if err := l.Enter(th, 1); err != nil {
				return err
			}
			stk, err := l.Stack(th, 1)
			if err != nil {
				return err
			}
			if rep := l.Audit(th); !rep.Ok() {
				t.Errorf("audit of an intact return record: %v", rep.Findings)
			}
			// The record is the first frame: its canary is the top word.
			th.CPU().WriteU64(stk.Base()+mem.Addr(stk.Size())-8, 0x4141414141414141)
			rep := l.Audit(th)
			if len(rep.Findings) != 1 || !strings.Contains(rep.Findings[0], "return-record canary smashed") {
				t.Errorf("audit of a smashed return record: %v", rep.Findings)
			}
			return l.Exit(th)
		})
		var abn *AbnormalExit
		if !errors.As(err, &abn) || abn.Signal != sig.SIGABRT {
			t.Fatalf("err = %v, want a SIGABRT abnormal exit from the canary check", err)
		}
		if err := guardScope(l, th); err != nil {
			t.Fatalf("scope after the smash: %v", err)
		}
		if rep := l.Audit(th); !rep.Ok() {
			t.Errorf("audit after recovery: %v", rep.Findings)
		}
		return nil
	})
}

// A policy change revokes no lease: validity re-derives rights from the
// live PKRU, so a sibling's domain init and destroy — which map nothing
// when the stack pool serves them — leave this thread's lease over its
// own domain valid, and discarding that domain invalidates it.
func TestSiblingTopologyChangeKeepsLeases(t *testing.T) {
	p, l := newLib(t)
	run(t, p, func(th *proc.Thread) error {
		do, stop := sibling(t, p, "B")
		defer stop()
		initDestroy := func(tb *proc.Thread) error {
			if err := l.InitDomain(tb, 2); err != nil {
				return err
			}
			return l.Destroy(tb, 2, NoHeapMerge)
		}
		if err := l.InitDomain(th, 1, Accessible()); err != nil {
			return err
		}
		ptr, err := l.Malloc(th, 1, 64)
		if err != nil {
			return err
		}
		// B's first init maps a stack and a heap; its destroy pools both.
		if err := do(initDestroy); err != nil {
			t.Fatalf("B warm-up: %v", err)
		}
		lease := th.CPU().NewLease(ptr, 64, mem.AccessWrite)
		if !lease.Valid() {
			t.Fatal("lease over this thread's accessible domain refused")
		}
		if err := do(initDestroy); err != nil {
			t.Fatalf("B init/destroy: %v", err)
		}
		if !lease.Valid() {
			t.Error("sibling's domain init and destroy revoked this thread's lease")
		}
		if err := l.Destroy(th, 1, NoHeapMerge); err != nil {
			return err
		}
		if lease.Valid() {
			t.Error("lease over a discarded domain still valid")
		}
		return nil
	})
}
