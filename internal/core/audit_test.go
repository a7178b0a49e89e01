package core

import (
	"errors"
	"strings"
	"testing"

	"sdrad/internal/mem"
	"sdrad/internal/proc"
	"sdrad/internal/sig"
)

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

// The PKRU condition is an equality: a register holding fewer rights
// than its policy is a finding, as one holding more is.
func TestAuditFlagsStaleRestrictivePKRU(t *testing.T) {
	p, l := newLib(t)
	run(t, p, func(th *proc.Thread) error {
		policy := th.CPU().PKRU()
		// Root memory is writable from the root domain; take that away.
		l.wrpkru(th, mem.PKRUAllow(policy, l.rootKey, false))
		rep := l.Audit(th)
		l.wrpkru(th, policy)
		if rep.ExpectedPKRU != policy {
			t.Fatalf("policy 0x%08x, want the untouched 0x%08x", rep.ExpectedPKRU, policy)
		}
		if rep.Ok() || !strings.HasPrefix(rep.Findings[0], "pkru") {
			t.Errorf("register 0x%08x narrower than policy 0x%08x: findings %v",
				rep.PKRU, rep.ExpectedPKRU, rep.Findings)
		}
		return nil
	})
}

// Data domains and root's grants are in every thread's policy, and the
// monitor rewrites only the caller's register: while a sibling is live,
// each call that would change them is refused and changes nothing; once
// the sibling has exited, each succeeds.
func TestSharedTopologyChangesOnlyOnALoneThread(t *testing.T) {
	p, l := newLib(t)
	as := p.AddressSpace()
	freeKeys := func() (n int) {
		for k := 1; k < mem.NumKeys; k++ {
			if !as.KeyAllocated(k) {
				n++
			}
		}
		return n
	}
	run(t, p, func(th *proc.Thread) error {
		if err := l.InitDomain(th, 10, AsData()); err != nil {
			return err
		}
		// In order, each widens or narrows this thread's root policy.
		calls := []struct {
			name string
			call func() error
		}{
			{"InitDomain(11, AsData)", func() error { return l.InitDomain(th, 11, AsData(), Accessible()) }},
			{"DProtect(root, 10)", func() error { return l.DProtect(th, RootUDI, 10, mem.ProtRW) }},
			{"Destroy(10)", func() error { return l.Destroy(th, 10, NoHeapMerge) }},
		}
		do, stop := sibling(t, p, "sibling")
		if err := do(func(*proc.Thread) error { return nil }); err != nil {
			return err
		}
		for _, c := range calls {
			policy, mapped, free := l.Audit(th).ExpectedPKRU, as.Stats().MappedBytes.Load(), freeKeys()
			if err := c.call(); !errors.Is(err, ErrSharedTopology) {
				t.Errorf("%s with a live sibling: err = %v, want ErrSharedTopology", c.name, err)
			}
			rep := l.Audit(th)
			if rep.ExpectedPKRU != policy || !rep.Ok() {
				t.Errorf("refused %s: policy 0x%08x -> 0x%08x, findings %v", c.name, policy, rep.ExpectedPKRU, rep.Findings)
			}
			if got := as.Stats().MappedBytes.Load(); got != mapped {
				t.Errorf("refused %s: mapped bytes %d -> %d", c.name, mapped, got)
			}
			if got := freeKeys(); got != free {
				t.Errorf("refused %s: free keys %d -> %d", c.name, free, got)
			}
		}
		if l.lookupDataDomain(10) == nil || l.lookupDataDomain(11) != nil {
			t.Error("refused calls changed the data-domain table")
		}
		stop()
		for _, c := range calls {
			policy := l.Audit(th).ExpectedPKRU
			if err := c.call(); err != nil {
				t.Errorf("%s on a lone thread: %v", c.name, err)
			}
			rep := l.Audit(th)
			if rep.ExpectedPKRU == policy || !rep.Ok() {
				t.Errorf("%s on a lone thread: policy 0x%08x -> 0x%08x, findings %v", c.name, policy, rep.ExpectedPKRU, rep.Findings)
			}
		}
		return nil
	})
}

// A grant names the data domain it was given for: once that domain is
// destroyed, a new data domain under the same index is not granted.
func TestGrantDiesWithItsDataDomain(t *testing.T) {
	p, l := newLib(t)
	run(t, p, func(th *proc.Thread) error {
		if err := l.InitDomain(th, 13, AsData()); err != nil {
			return err
		}
		if err := l.InitDomain(th, 1, Grant(13, mem.ProtRW)); err != nil {
			return err
		}
		if err := l.Destroy(th, 13, NoHeapMerge); err != nil {
			return err
		}
		if err := l.InitDomain(th, 13, AsData()); err != nil {
			return err
		}
		ts, key := l.state(th), l.lookupDataDomain(13).key
		if ad, _ := mem.PKRURights(l.computePKRU(ts, ts.domains[1]), key); !ad {
			t.Errorf("domain 1's policy grants key %d of the new data domain 13", key)
		}
		var merr error
		if err := l.Guard(th, 1, func() error {
			if err := l.Enter(th, 1); err != nil {
				return err
			}
			_, merr = l.Malloc(th, 13, 64)
			return l.Exit(th)
		}); err != nil {
			return err
		}
		if !errors.Is(merr, ErrNotChild) {
			t.Errorf("domain 1 allocating in the new data domain 13: err = %v, want ErrNotChild", merr)
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
		// A monitor call installs this thread's current policy: an Exit
		// from the root is refused, but only after passing the monitor.
		if err := l.Exit(th); !errors.Is(err, ErrNotEntered) {
			t.Fatalf("Exit from the root: %v, want ErrNotEntered", err)
		}
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
