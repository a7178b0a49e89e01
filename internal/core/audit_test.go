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
// register may deny rights the policy grants (a sibling thread widened
// the shared root's policy since this thread's last transition), but
// must never grant rights the policy denies.

func TestAuditToleratesStaleRestrictivePKRU(t *testing.T) {
	p, l := newLib(t)
	run(t, p, func(th *proc.Thread) error {
		before := th.CPU().PKRU()
		ready := make(chan struct{})
		release := make(chan struct{})
		h := p.Spawn("sibling", func(th2 *proc.Thread) error {
			return l.Guard(th2, 1, func() error {
				close(ready)
				<-release
				return nil
			}, Accessible())
		})
		<-ready
		// The sibling initialized an accessible domain under the shared
		// root; the policy widened but this thread's register cannot have
		// moved without a transition of its own.
		if got := th.CPU().PKRU(); got != before {
			t.Fatalf("register moved without a transition: 0x%08x -> 0x%08x", before, got)
		}
		rep := l.Audit(th)
		if rep.PKRU == rep.ExpectedPKRU {
			t.Fatal("test vacuous: sibling's domain did not widen root policy")
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
		close(release)
		if err := h.Join(); err != nil {
			t.Fatalf("sibling: %v", err)
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
