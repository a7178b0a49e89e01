package core

import (
	"errors"
	"testing"

	"sdrad/internal/mem"
	"sdrad/internal/proc"
	"sdrad/internal/sig"
)

// TestRewindDuringExit injects a fault that fires on Exit's first memory
// access — mid domain-teardown, while the victim is still the current
// domain. The rewind must absorb it like any in-domain fault: the Guard
// reports an abnormal exit of the victim and the library keeps working.
func TestRewindDuringExit(t *testing.T) {
	p, l := newLib(t)
	run(t, p, func(th *proc.Thread) error {
		c := th.CPU()
		const victim = UDI(5)
		gerr := l.Guard(th, victim, func() error {
			if err := l.Enter(th, victim); err != nil {
				return err
			}
			c.SetFaultInjector(func(addr mem.Addr, kind mem.AccessKind) *mem.Fault {
				return &mem.Fault{Kind: kind, Code: mem.CodePkuErr, PKey: l.RootKey()}
			})
			return l.Exit(th)
		}, Accessible())
		if c.FaultInjectorArmed() {
			c.SetFaultInjector(nil)
			t.Fatal("injector never fired during Exit")
		}
		var abn *AbnormalExit
		if !errors.As(gerr, &abn) {
			t.Fatalf("guard returned %v, want abnormal exit", gerr)
		}
		if abn.FailedUDI != victim {
			t.Errorf("failed domain %d, want %d", abn.FailedUDI, victim)
		}
		if abn.Signal != sig.SIGSEGV || abn.Code != int(mem.CodePkuErr) {
			t.Errorf("oracle %v code=%d, want SIGSEGV/SEGV_PKUERR", abn.Signal, abn.Code)
		}
		if got := l.Stats().Rewinds.Load(); got != 1 {
			t.Errorf("rewinds = %d, want 1", got)
		}
		if got := l.Current(th); got != RootUDI {
			t.Errorf("current = %d after rewind, want root", got)
		}
		// The library must still run guarded domains normally.
		return l.Guard(th, UDI(6), func() error {
			if err := l.Enter(th, UDI(6)); err != nil {
				return err
			}
			return l.Exit(th)
		}, Accessible())
	})
}

// TestRewindLimitExhausted exercises the §VI rewind budget: with
// WithRewindLimit(2), the first fault is absorbed but the second hits the
// limit mid-campaign and the process dies instead of rewinding — the
// restart that re-randomizes probabilistic defenses.
func TestRewindLimitExhausted(t *testing.T) {
	p := proc.NewProcess("test", proc.WithSeed(7))
	l, err := Setup(p, WithRewindLimit(2))
	if err != nil {
		t.Fatal(err)
	}
	const victim = UDI(5)
	attack := func(th *proc.Thread) error {
		return l.Guard(th, victim, func() error {
			if err := l.Enter(th, victim); err != nil {
				return err
			}
			th.CPU().WriteU64(l.MonitorBase(), 0xdead)
			return errors.New("unreachable")
		}, Accessible())
	}
	err = p.Attach("main", func(th *proc.Thread) error {
		gerr := attack(th)
		var abn *AbnormalExit
		if !errors.As(gerr, &abn) {
			t.Errorf("first fault: guard returned %v, want absorbed abnormal exit", gerr)
		}
		if got := l.Stats().Rewinds.Load(); got != 1 {
			t.Errorf("rewinds after first fault = %d, want 1", got)
		}
		// Second fault exhausts the budget: the guard never returns.
		_ = attack(th)
		t.Error("execution continued past the rewind limit")
		return nil
	})
	var crash *proc.CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("attach returned %v, want crash", err)
	}
	if !p.Killed() {
		t.Error("process survived an exhausted rewind budget")
	}
	if got := l.Stats().Rewinds.Load(); got != 2 {
		t.Errorf("rewinds = %d, want 2 (limit)", got)
	}
}

// TestDoubleFaultInRewindObserver documents the semantics of a fault
// raised inside the rewind observer itself: the observer runs on the
// victim thread mid-recovery, so a second fault there cannot be rewound —
// it escapes to the supervisor and kills the process, like a SIGSEGV
// inside a SIGSEGV handler.
func TestDoubleFaultInRewindObserver(t *testing.T) {
	p := proc.NewProcess("test", proc.WithSeed(7))
	var cpu *mem.CPU
	l, err := Setup(p, WithRewindObserver(func(RewindEvent) {
		_ = cpu.ReadU8(mem.Addr(1) << 40) // unmapped: double fault
	}))
	if err != nil {
		t.Fatal(err)
	}
	const victim = UDI(5)
	err = p.Attach("main", func(th *proc.Thread) error {
		cpu = th.CPU()
		gerr := l.Guard(th, victim, func() error {
			if err := l.Enter(th, victim); err != nil {
				return err
			}
			th.CPU().WriteU64(l.MonitorBase(), 0xdead)
			return errors.New("unreachable")
		}, Accessible())
		t.Errorf("guard returned %v, but the double fault should have killed the process", gerr)
		return nil
	})
	var crash *proc.CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("attach returned %v, want crash", err)
	}
	if crash.Info.Signal != sig.SIGSEGV {
		t.Errorf("crash signal %v, want SIGSEGV", crash.Info.Signal)
	}
	if !p.Killed() {
		t.Error("process survived a double fault")
	}
	// The first rewind completed its bookkeeping before the observer ran.
	if got := l.Stats().Rewinds.Load(); got != 1 {
		t.Errorf("rewinds = %d, want 1", got)
	}
}

// TestRewindRevokesLeasesTakenInTheDomain: a span lease the thread took
// inside a domain dies with the domain's rewind. Valid is false and the
// window is refused from the root domain, where no re-verification can
// pass; once the re-created domain holds the span again, the lease
// re-verifies and its window is the new instance's memory.
func TestRewindRevokesLeasesTakenInTheDomain(t *testing.T) {
	p, l := newLib(t, WithScrubOnDiscard(true))
	run(t, p, func(th *proc.Thread) error {
		c := th.CPU()
		var lease mem.Lease
		scope := func(body func(buf mem.Addr) error) error {
			return l.Guard(th, UDI(5), func() error {
				buf, err := l.Malloc(th, UDI(5), 64)
				if err == nil {
					err = l.Enter(th, UDI(5))
				}
				if err != nil {
					return err
				}
				return body(buf)
			}, Accessible())
		}
		var abn *AbnormalExit
		if err := scope(func(buf mem.Addr) error {
			if lease = c.NewLease(buf, 64, mem.AccessWrite); !lease.Valid() {
				return errors.New("in-domain lease refused")
			}
			c.WriteU64(l.MonitorBase(), 0xdead) // the rewind discards the domain
			return nil
		}); !errors.As(err, &abn) {
			t.Fatalf("guard returned %v, want abnormal exit", err)
		}
		if _, ok := lease.Window(); lease.Valid() || ok {
			t.Error("lease into the discarded domain usable from the root domain")
		}
		return scope(func(mem.Addr) error {
			if w, ok := lease.Window(); !ok {
				t.Error("lease did not re-verify inside the re-created domain")
			} else if w[1] = 0x55; c.ReadU8(lease.Base()+1) != 0x55 {
				t.Error("re-verified window is not the re-created domain's memory")
			}
			return l.Exit(th)
		})
	})
}

// TestRewindDiscardsTheDomainsCreatedInside: a rewind of an outer domain
// discards the inner domain created inside it too, never leaving it
// behind under a dead parent. Afterwards the inner index initializes
// again from root, and the keys and mapped bytes are back at their
// baseline (stack reuse is off, so a discard unmaps and frees the key).
func TestRewindDiscardsTheDomainsCreatedInside(t *testing.T) {
	p, l := newLib(t, WithStackReuse(false))
	as := p.AddressSpace()
	run(t, p, func(th *proc.Thread) error {
		keys, mapped := keysAndMapped(as)
		err := l.Guard(th, 1, func() error {
			if err := l.Enter(th, 1); err != nil {
				return err
			}
			if err := l.Guard(th, 2, func() error {
				if err := l.Enter(th, 2); err != nil {
					return err
				}
				return l.Exit(th)
			}); err != nil {
				return err
			}
			th.CPU().WriteU8(0xDEAD0000, 1) // the outer domain traps
			return nil
		})
		var abn *AbnormalExit
		if !errors.As(err, &abn) || abn.FailedUDI != 1 {
			t.Fatalf("outer guard returned %v, want an abnormal exit of domain 1", err)
		}
		if k, m := keysAndMapped(as); k != keys || m != mapped {
			t.Errorf("after the rewind: %d keys and %d bytes mapped, baseline %d and %d", k, m, keys, mapped)
		}
		if rep := l.Audit(th); !rep.Ok() || len(rep.Domains) != 0 {
			t.Errorf("audit after the rewind: %v, domains %v", rep.Findings, rep.Domains)
		}
		if err := l.InitDomain(th, 2); err != nil {
			t.Errorf("re-initializing the inner index: %v", err)
		}
		return l.Destroy(th, 2, NoHeapMerge)
	})
}

// TestDestroyDiscardsTheDomainsCreatedInside: Destroy refuses, changing
// nothing, while the domain or one created inside it is entered; once
// neither is, the inner domain goes with the outer one — discarded even
// when the outer one's heap is merged.
func TestDestroyDiscardsTheDomainsCreatedInside(t *testing.T) {
	p, l := newLib(t, WithStackReuse(false))
	as := p.AddressSpace()
	run(t, p, func(th *proc.Thread) error {
		keys, mapped := keysAndMapped(as)
		err := l.Guard(th, 1, func() error {
			if err := l.Enter(th, 1); err != nil {
				return err
			}
			if err := l.Guard(th, 2, func() error {
				if err := l.Enter(th, 2); err != nil {
					return err
				}
				if err := l.Destroy(th, 1, HeapMerge); !errors.Is(err, ErrDomainBusy) {
					t.Errorf("Destroy of the outer domain from the inner one: %v, want ErrDomainBusy", err)
				}
				return l.Exit(th)
			}); err != nil {
				return err
			}
			return l.Exit(th)
		}, Accessible())
		if err != nil {
			return err
		}
		if rep := l.Audit(th); !rep.Ok() || len(rep.Domains) != 2 {
			t.Errorf("audit after the refused Destroy: %v, domains %v", rep.Findings, rep.Domains)
		}
		if err := l.Destroy(th, 1, HeapMerge); err != nil {
			return err
		}
		// The merge maps root's first heap region and hands it the outer
		// heap's pages.
		if k, m := keysAndMapped(as); k != keys || m != mapped+HeapStep+DefaultHeapSize {
			t.Errorf("after Destroy: %d keys and %d bytes mapped, want %d and %d", k, m, keys, mapped+HeapStep+DefaultHeapSize)
		}
		if rep := l.Audit(th); !rep.Ok() || len(rep.Domains) != 0 {
			t.Errorf("audit after Destroy: %v, domains %v", rep.Findings, rep.Domains)
		}
		return l.InitDomain(th, 2)
	})
}

// TestBlockedSegvInGuardedDomainIsFatal: a guarded domain that faults
// with SIGSEGV blocked in the thread's mask is not rewound — the kernel
// never runs the handler for a blocked synchronous signal — and the
// process dies.
func TestBlockedSegvInGuardedDomainIsFatal(t *testing.T) {
	p, l := newLib(t)
	err := p.Attach("main", func(th *proc.Thread) error {
		return l.Guard(th, 1, func() error {
			th.SetSigMask(sig.Mask(0).Block(sig.SIGSEGV))
			if err := l.Enter(th, 1); err != nil {
				return err
			}
			th.CPU().WriteU8(0xDEAD0000, 1)
			return nil
		})
	})
	var crash *proc.CrashError
	if !errors.As(err, &crash) || crash.Info.Signal != sig.SIGSEGV {
		t.Fatalf("err = %v, want a SIGSEGV crash", err)
	}
	if !p.Killed() || l.Stats().Rewinds.Load() != 0 {
		t.Errorf("killed %v after %d rewinds, want killed after none", p.Killed(), l.Stats().Rewinds.Load())
	}
}
