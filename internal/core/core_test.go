package core

import (
	"errors"
	"testing"

	"sdrad/internal/mem"
	"sdrad/internal/proc"
	"sdrad/internal/sig"
	"sdrad/internal/tlsf"
)

// newLib builds a process with SDRaD set up.
func newLib(t testing.TB, opts ...SetupOption) (*proc.Process, *Library) {
	t.Helper()
	p := proc.NewProcess("test", proc.WithSeed(7))
	l, err := Setup(p, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return p, l
}

// run attaches a main thread and runs body, failing the test on error.
func run(t *testing.T, p *proc.Process, body func(th *proc.Thread) error) {
	t.Helper()
	if err := p.Attach("main", body); err != nil {
		t.Fatal(err)
	}
}

func TestSetupAllocatesKeys(t *testing.T) {
	p, l := newLib(t)
	if l.RootKey() == 0 {
		t.Error("root key is key 0")
	}
	if l.Process() != p {
		t.Error("process not recorded")
	}
	if l.MonitorBase() == 0 {
		t.Error("monitor domain not mapped")
	}
}

func TestThreadStartsInRoot(t *testing.T) {
	p, l := newLib(t)
	run(t, p, func(th *proc.Thread) error {
		if got := l.Current(th); got != RootUDI {
			t.Errorf("current = %d", got)
		}
		// Root policy: root key and key 0 writable, monitor key denied.
		pkru := th.CPU().PKRU()
		if ad, wd := mem.PKRURights(pkru, l.RootKey()); ad || wd {
			t.Error("root key not writable in root domain")
		}
		if ad, _ := mem.PKRURights(pkru, 0); ad {
			t.Error("key 0 not accessible in root domain")
		}
		return nil
	})
}

func TestMonitorDataDomainProtected(t *testing.T) {
	// R4: domain code (even root-domain code) must not be able to touch
	// the monitor data domain; the attempt is fatal.
	p, l := newLib(t)
	err := p.Attach("main", func(th *proc.Thread) error {
		th.CPU().WriteU64(l.MonitorBase(), 0xABAD1DEA)
		return nil
	})
	var crash *proc.CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("err = %v, want crash", err)
	}
	if crash.Info.Code != int(mem.CodePkuErr) {
		t.Errorf("code = %d, want SEGV_PKUERR", crash.Info.Code)
	}
}

func TestRootMallocFree(t *testing.T) {
	p, l := newLib(t)
	run(t, p, func(th *proc.Thread) error {
		a, err := l.Malloc(th, RootUDI, 100)
		if err != nil {
			return err
		}
		th.CPU().Memset(a, 0x7F, 100)
		if th.CPU().ReadU8(a+99) != 0x7F {
			t.Error("root heap data lost")
		}
		return l.Free(th, RootUDI, a)
	})
}

func TestInitDomainErrors(t *testing.T) {
	p, l := newLib(t)
	run(t, p, func(th *proc.Thread) error {
		if err := l.InitDomain(th, RootUDI); !errors.Is(err, ErrRootOperation) {
			t.Errorf("init root err = %v", err)
		}
		if err := l.InitDomain(th, 1); err != nil {
			return err
		}
		if err := l.InitDomain(th, 1); !errors.Is(err, ErrAlreadyInit) {
			t.Errorf("double init err = %v", err)
		}
		if err := l.InitDomain(th, 2, AsData()); err != nil {
			return err
		}
		if err := l.InitDomain(th, 2); !errors.Is(err, ErrUDIInUse) {
			t.Errorf("exec over data err = %v", err)
		}
		// Grandparent handler from root parent is invalid.
		if err := l.InitDomain(th, 3, HandlerAtGrandparent()); !errors.Is(err, ErrNoGrandparent) {
			t.Errorf("grandparent-from-root err = %v", err)
		}
		return nil
	})
}

func TestEnterRequiresGuardContext(t *testing.T) {
	p, l := newLib(t)
	run(t, p, func(th *proc.Thread) error {
		if err := l.InitDomain(th, 1); err != nil {
			return err
		}
		if err := l.Enter(th, 1); !errors.Is(err, ErrNoContext) {
			t.Errorf("enter without guard err = %v", err)
		}
		if err := l.Enter(th, 99); !errors.Is(err, ErrUnknownDomain) {
			t.Errorf("enter unknown err = %v", err)
		}
		if err := l.Exit(th); !errors.Is(err, ErrNotEntered) {
			t.Errorf("exit at root err = %v", err)
		}
		return nil
	})
}

// TestListing1Lifecycle follows the paper's Listing 1: allocate the
// argument in an accessible nested domain, enter, compute, exit, read the
// result back, destroy.
func TestListing1Lifecycle(t *testing.T) {
	p, l := newLib(t)
	const udiF = UDI(5)
	run(t, p, func(th *proc.Thread) error {
		arg := []byte("argument-bytes")
		var result byte
		err := l.Guard(th, udiF, func() error {
			adr, err := l.Malloc(th, udiF, uint64(len(arg)))
			if err != nil {
				return err
			}
			l.WriteBytes(th, adr, arg) // copy arg into the domain
			if err := l.Enter(th, udiF); err != nil {
				return err
			}
			if got := l.Current(th); got != udiF {
				t.Errorf("current inside = %d", got)
			}
			// F: checksum the argument inside the domain.
			var sum byte
			for i := 0; i < len(arg); i++ {
				sum += th.CPU().ReadU8(adr + mem.Addr(i))
			}
			// Store result in domain heap, retrieve after exit (the
			// domain is accessible to the parent).
			rptr, err := l.Malloc(th, udiF, 8)
			if err != nil {
				return err
			}
			th.CPU().WriteU8(rptr, sum)
			if err := l.Exit(th); err != nil {
				return err
			}
			result = th.CPU().ReadU8(rptr) // parent reads accessible child
			if err := l.Free(th, udiF, rptr); err != nil {
				return err
			}
			return l.Free(th, udiF, adr)
		}, Accessible())
		if err != nil {
			return err
		}
		var want byte
		for _, b := range arg {
			want += b
		}
		if result != want {
			t.Errorf("result = %d, want %d", result, want)
		}
		return l.Destroy(th, udiF, NoHeapMerge)
	})
	if got := l.Stats().DomainSwitches.Load(); got != 2 {
		t.Errorf("switches = %d, want 2", got)
	}
}

func TestNestedDomainCannotWriteRoot(t *testing.T) {
	// R3: the root domain is read-only from nested domains; a write is a
	// PKU violation triggering an abnormal exit.
	p, l := newLib(t)
	run(t, p, func(th *proc.Thread) error {
		rootBuf, err := l.Malloc(th, RootUDI, 64)
		if err != nil {
			return err
		}
		th.CPU().WriteU8(rootBuf, 42)
		err = l.Guard(th, 1, func() error {
			if err := l.Enter(th, 1); err != nil {
				return err
			}
			// Reading root data is allowed (globals are readable)...
			if got := th.CPU().ReadU8(rootBuf); got != 42 {
				t.Errorf("read from nested = %d", got)
			}
			// ...but writing root data faults.
			th.CPU().WriteU8(rootBuf, 99)
			t.Error("unreachable: write must fault")
			return nil
		})
		var abn *AbnormalExit
		if !errors.As(err, &abn) {
			t.Fatalf("err = %v, want AbnormalExit", err)
		}
		if abn.FailedUDI != 1 {
			t.Errorf("failed udi = %d", abn.FailedUDI)
		}
		if abn.Code != int(mem.CodePkuErr) {
			t.Errorf("code = %d, want PKUERR", abn.Code)
		}
		// The write never landed.
		if got := th.CPU().ReadU8(rootBuf); got != 42 {
			t.Errorf("root data corrupted: %d", got)
		}
		// Execution continues in the root domain.
		if l.Current(th) != RootUDI {
			t.Error("not back in root")
		}
		return nil
	})
	if p.Killed() {
		t.Error("process died despite rewind")
	}
	if got := l.Stats().Rewinds.Load(); got != 1 {
		t.Errorf("rewinds = %d", got)
	}
}

func TestAbnormalExitDiscardsDomain(t *testing.T) {
	p, l := newLib(t)
	run(t, p, func(th *proc.Thread) error {
		var heapPtr mem.Addr
		err := l.Guard(th, 1, func() error {
			var err error
			heapPtr, err = l.Malloc(th, 1, 64)
			if err != nil {
				return err
			}
			if err := l.Enter(th, 1); err != nil {
				return err
			}
			th.CPU().WriteU8(0xDEAD0000, 1) // unmapped -> MAPERR
			return nil
		}, Accessible())
		var abn *AbnormalExit
		if !errors.As(err, &abn) || abn.Code != int(mem.CodeMapErr) {
			t.Fatalf("err = %v", err)
		}
		// Domain is gone: its heap pages left the domain — either unmapped
		// or parked, scrubbed, in the reuse pool — and the UDI is free to
		// re-initialize.
		if p.AddressSpace().Mapped(heapPtr, 1) && !l.HeapPooled(heapPtr) {
			t.Error("discarded domain heap still mapped outside the reuse pool")
		}
		if err := l.InitDomain(th, 1); err != nil {
			t.Errorf("re-init after discard: %v", err)
		}
		return nil
	})
}

func TestHeapPoolingReusesRegionAfterRewind(t *testing.T) {
	// A rewind parks the discarded exec-domain heap alongside its stack in
	// the reuse pool; the next provisioning of the domain reuses the same
	// region instead of mapping a fresh one, so mapped bytes stay flat
	// across crash/re-init cycles.
	p, l := newLib(t, WithScrubOnDiscard(true))
	run(t, p, func(th *proc.Thread) error {
		crash := func() mem.Addr {
			var heapPtr mem.Addr
			err := l.Guard(th, 1, func() error {
				var err error
				heapPtr, err = l.Malloc(th, 1, 64)
				if err != nil {
					return err
				}
				if err := l.Enter(th, 1); err != nil {
					return err
				}
				th.CPU().WriteU8(0xDEAD0000, 1) // unmapped -> rewind
				return nil
			}, Accessible())
			var abn *AbnormalExit
			if !errors.As(err, &abn) {
				t.Fatalf("guard err = %v", err)
			}
			return heapPtr
		}
		first := crash()
		if !l.HeapPooled(first) {
			t.Fatal("discarded heap not parked in the reuse pool")
		}
		rep := l.Audit(th)
		if rep.PooledHeaps == 0 {
			t.Error("audit reports no pooled heaps")
		}
		if len(rep.Findings) != 0 {
			t.Errorf("audit findings after pooling: %v", rep.Findings)
		}
		mappedAfterFirst := p.AddressSpace().Stats().MappedBytes.Load()
		second := crash()
		if second != first {
			t.Errorf("pooled heap not reused: first alloc 0x%x, second 0x%x", first, second)
		}
		if got := p.AddressSpace().Stats().MappedBytes.Load(); got != mappedAfterFirst {
			t.Errorf("mapped bytes drifted across pooled rewind cycle: %d, want %d",
				got, mappedAfterFirst)
		}
		return nil
	})
}

func TestStackSmashOnExitRewinds(t *testing.T) {
	// The domain overflows a stack buffer far enough to clobber the
	// Enter return record; the canary check on Exit detects it
	// (__stack_chk_fail analog) and the guard rewinds with SIGABRT.
	p, l := newLib(t)
	run(t, p, func(th *proc.Thread) error {
		err := l.Guard(th, 1, func() error {
			if err := l.Enter(th, 1); err != nil {
				return err
			}
			d := l.state(th).current
			f, err := d.stk.PushFrame(th.CPU(), 32)
			if err != nil {
				return err
			}
			// Overflow: 32 locals + own canary + the Enter record canary
			// above it.
			th.CPU().Memset(f.Locals(), 0x41, 32+8+8)
			return l.Exit(th)
		})
		var abn *AbnormalExit
		if !errors.As(err, &abn) {
			t.Fatalf("err = %v", err)
		}
		if abn.Signal != sig.SIGABRT {
			t.Errorf("signal = %v, want SIGABRT", abn.Signal)
		}
		return nil
	})
}

func TestRootFaultTerminatesProcess(t *testing.T) {
	p, l := newLib(t)
	err := p.Attach("main", func(th *proc.Thread) error {
		// Even inside a Guard, a fault attributed to the ROOT domain is
		// not recoverable (paper: abnormal root exit terminates).
		return l.Guard(th, 1, func() error {
			// Not entered: current is still root.
			th.CPU().WriteU8(0xDEAD0000, 1)
			return nil
		})
	})
	var crash *proc.CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("err = %v, want crash", err)
	}
	if !p.Killed() {
		t.Error("process survived root fault")
	}
}

func TestPersistentDomainKeepsState(t *testing.T) {
	p, l := newLib(t)
	const udi = UDI(4)
	run(t, p, func(th *proc.Thread) error {
		var ptr mem.Addr
		// First guard: allocate and store.
		err := l.Guard(th, udi, func() error {
			var err error
			ptr, err = l.Malloc(th, udi, 16)
			if err != nil {
				return err
			}
			if err := l.Enter(th, udi); err != nil {
				return err
			}
			th.CPU().WriteU64(ptr, 0xC0FFEE)
			return l.Exit(th)
		}, Accessible())
		if err != nil {
			return err
		}
		// Second guard on the same domain (persistent pattern): state
		// survives.
		return l.Guard(th, udi, func() error {
			if err := l.Enter(th, udi); err != nil {
				return err
			}
			if got := th.CPU().ReadU64(ptr); got != 0xC0FFEE {
				t.Errorf("persistent state = %#x", got)
			}
			return l.Exit(th)
		})
	})
}

func TestGuardDoubleInit(t *testing.T) {
	p, l := newLib(t)
	run(t, p, func(th *proc.Thread) error {
		return l.Guard(th, 1, func() error {
			// Guarding an already-guarded domain is the C library's
			// "already initialized in the current thread" error.
			if err := l.Guard(th, 1, func() error { return nil }); !errors.Is(err, ErrAlreadyInit) {
				t.Errorf("nested guard err = %v", err)
			}
			return nil
		})
	})
}

func TestTransientHeapMerge(t *testing.T) {
	p, l := newLib(t)
	const udi = UDI(2)
	run(t, p, func(th *proc.Thread) error {
		// Root needs its heap initialized to receive the merge.
		warm, err := l.Malloc(th, RootUDI, 8)
		if err != nil {
			return err
		}
		defer func() { _ = l.Free(th, RootUDI, warm) }()

		var live mem.Addr
		err = l.Guard(th, udi, func() error {
			live, err = l.Malloc(th, udi, 32)
			if err != nil {
				return err
			}
			th.CPU().WriteU64(live, 0xFACE)
			if err := l.Enter(th, udi); err != nil {
				return err
			}
			return l.Exit(th)
		}, Accessible())
		if err != nil {
			return err
		}
		// Transient pattern with merge: the allocation survives into the
		// parent (root) domain.
		if err := l.Destroy(th, udi, HeapMerge); err != nil {
			return err
		}
		if got := th.CPU().ReadU64(live); got != 0xFACE {
			t.Errorf("merged data = %#x", got)
		}
		// The merged block is now managed (and freeable) by root.
		if err := l.Free(th, RootUDI, live); err != nil {
			t.Errorf("freeing merged block: %v", err)
		}
		// Pages were retagged to the root key.
		_, pkey, ok := p.AddressSpace().PageInfo(live)
		if !ok || pkey != l.RootKey() {
			t.Errorf("merged page key = %d, want root %d", pkey, l.RootKey())
		}
		return nil
	})
}

func TestHeapMergeRequiresAccessible(t *testing.T) {
	p, l := newLib(t)
	run(t, p, func(th *proc.Thread) error {
		if err := l.Guard(th, 2, func() error { return nil }); err != nil {
			return err
		}
		if err := l.Destroy(th, 2, HeapMerge); !errors.Is(err, ErrNotChild) {
			t.Errorf("merge of inaccessible err = %v", err)
		}
		return l.Destroy(th, 2, NoHeapMerge)
	})
}

// A merge the parent refuses — here a heap region too small for the
// parent's allocator to pool — still destroys the domain: Destroy returns the refusal, the domain is
// gone, its heap is unmapped, and the audit is clean.
func TestRefusedHeapMergeDiscards(t *testing.T) {
	p, l := newLib(t)
	run(t, p, func(th *proc.Thread) error {
		if _, err := l.Malloc(th, RootUDI, 8); err != nil {
			return err
		}
		// A heap region too small to hold one block: root's allocator
		// refuses it as a pool.
		if err := l.InitDomain(th, 2, Accessible(), HeapSize(16)); err != nil {
			return err
		}
		childHeap := l.state(th).domains[2].heapBase
		if err := l.Destroy(th, 2, HeapMerge); !errors.Is(err, tlsf.ErrBadRegion) {
			t.Fatalf("merge of a region root cannot pool returned %v", err)
		}
		if _, ok := l.state(th).domains[2]; ok {
			t.Error("domain survived its refused merge")
		}
		if p.AddressSpace().Mapped(childHeap, mem.PageSize) {
			t.Error("heap of the refused merge still mapped")
		}
		if rep := l.Audit(th); !rep.Ok() {
			t.Errorf("audit after the refused merge: %v", rep.Findings)
		}
		return nil
	})
}

func TestInaccessibleChildUnreadableByParent(t *testing.T) {
	p, l := newLib(t)
	err := p.Attach("main", func(th *proc.Thread) error {
		var secret mem.Addr
		err := l.Guard(th, 3, func() error {
			if err := l.Enter(th, 3); err != nil {
				return err
			}
			var err error
			secret, err = l.Malloc(th, 3, 16)
			if err != nil {
				return err
			}
			th.CPU().WriteU64(secret, 0x5EC12E7)
			return l.Exit(th)
		}) // NOT Accessible
		if err != nil {
			return err
		}
		// Parent (root) read of the inaccessible child faults — and since
		// the fault is attributed to root, the process dies.
		_ = th.CPU().ReadU64(secret)
		return nil
	})
	var crash *proc.CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("err = %v, want crash (root cannot read inaccessible child)", err)
	}
	if crash.Info.Code != int(mem.CodePkuErr) {
		t.Errorf("code = %d", crash.Info.Code)
	}
}

func TestAccessibleChildReadableByParent(t *testing.T) {
	p, l := newLib(t)
	run(t, p, func(th *proc.Thread) error {
		var ptr mem.Addr
		err := l.Guard(th, 3, func() error {
			var err error
			ptr, err = l.Malloc(th, 3, 16)
			if err != nil {
				return err
			}
			if err := l.Enter(th, 3); err != nil {
				return err
			}
			th.CPU().WriteU64(ptr, 0xAB)
			return l.Exit(th)
		}, Accessible())
		if err != nil {
			return err
		}
		if got := th.CPU().ReadU64(ptr); got != 0xAB {
			t.Errorf("parent read = %#x", got)
		}
		th.CPU().WriteU64(ptr, 0xCD) // parent may also write
		return nil
	})
}

func TestDataDomainGrants(t *testing.T) {
	p, l := newLib(t)
	const (
		shared = UDI(10)
		worker = UDI(11)
	)
	run(t, p, func(th *proc.Thread) error {
		if err := l.InitDomain(th, shared, AsData(), Accessible()); err != nil {
			return err
		}
		buf, err := l.Malloc(th, shared, 64)
		if err != nil {
			return err
		}
		th.CPU().WriteU64(buf, 0xDA7A)

		// Worker domain with read-only grant on the shared data domain.
		if err := l.InitDomain(th, worker); err != nil {
			return err
		}
		if err := l.DProtect(th, worker, shared, mem.ProtRead); err != nil {
			return err
		}
		err = l.Guard(th, 12, func() error { return nil }) // unrelated guard to exercise paths
		if err != nil {
			return err
		}

		// Enter worker under guard: read succeeds, write rewinds.
		gerr := l.Guard(th, worker, func() error {
			if err := l.Enter(th, worker); err != nil {
				return err
			}
			if got := th.CPU().ReadU64(buf); got != 0xDA7A {
				t.Errorf("granted read = %#x", got)
			}
			th.CPU().WriteU64(buf, 1) // read-only grant: faults
			return nil
		})
		var abn *AbnormalExit
		if !errors.As(gerr, &abn) || abn.Code != int(mem.CodePkuErr) {
			t.Fatalf("write with RO grant: %v", gerr)
		}

		// Upgrade to RW (worker domain was discarded by the rewind; use a
		// fresh one).
		const worker2 = UDI(13)
		if err := l.InitDomain(th, worker2); err != nil {
			return err
		}
		if err := l.DProtect(th, worker2, shared, mem.ProtRW); err != nil {
			return err
		}
		return l.Guard(th, worker2, func() error {
			if err := l.Enter(th, worker2); err != nil {
				return err
			}
			th.CPU().WriteU64(buf, 0xBEEF)
			return l.Exit(th)
		})
	})
}

// TestGrantTravelsWithInitOptions: a grant given at init survives a
// rewind because the Guard that re-creates the domain re-applies it from
// the same options — no DProtect call anywhere — and a grant naming a
// missing data domain fails before anything is provisioned.
func TestGrantTravelsWithInitOptions(t *testing.T) {
	p, l := newLib(t)
	const (
		shared = UDI(10)
		worker = UDI(11)
	)
	run(t, p, func(th *proc.Thread) error {
		if err := l.InitDomain(th, shared, AsData(), Accessible()); err != nil {
			return err
		}
		buf, err := l.Malloc(th, shared, 64)
		if err != nil {
			return err
		}
		opts := []InitOption{Accessible(), Grant(shared, mem.ProtRW)}
		write := func(v uint64, fault bool) error {
			return l.Guard(th, worker, func() error {
				if err := l.Enter(th, worker); err != nil {
					return err
				}
				th.CPU().WriteU64(buf, v)
				if fault {
					th.CPU().WriteU8(0xDEAD0000, 1)
				}
				return l.Exit(th)
			}, opts...)
		}
		var abn *AbnormalExit
		if err := write(1, true); !errors.As(err, &abn) || abn.Addr != 0xDEAD0000 {
			t.Fatalf("first scope err = %v, want a rewind at the unmapped store", err)
		}
		if got := th.CPU().ReadU64(buf); got != 1 {
			t.Fatalf("granted write before the fault = %d, want 1", got)
		}
		inits := l.Stats().Inits.Load()
		if err := write(2, false); err != nil {
			t.Fatalf("re-created scope err = %v", err)
		}
		if n := l.Stats().Inits.Load(); n != inits+1 {
			t.Errorf("inits %d -> %d, want the domain re-created once", inits, n)
		}
		if got := th.CPU().ReadU64(buf); got != 2 {
			t.Errorf("granted write after the rewind = %d, want 2", got)
		}

		as := p.AddressSpace()
		keys := func() (n int) {
			for k := 0; k < 16; k++ {
				if as.KeyAllocated(k) {
					n++
				}
			}
			return n
		}
		keys0, mapped0 := keys(), as.Stats().MappedBytes.Load()
		if err := l.InitDomain(th, 12, Grant(42, mem.ProtRW)); !errors.Is(err, ErrUnknownDomain) {
			t.Fatalf("grant on a missing data domain: err = %v, want ErrUnknownDomain", err)
		}
		if k, m := keys(), as.Stats().MappedBytes.Load(); k != keys0 || m != mapped0 {
			t.Errorf("failed init left keys %d -> %d, mapped %d -> %d", keys0, k, mapped0, m)
		}
		return nil
	})
}

func TestGuardOnExistingDomainNeedsValidParent(t *testing.T) {
	p, l := newLib(t)
	run(t, p, func(th *proc.Thread) error {
		// Create domain 1 as child of root.
		if err := l.Guard(th, 1, func() error { return nil }); err != nil {
			return err
		}
		// Re-guard domain 1 from inside another domain: parent mismatch.
		return l.Guard(th, 2, func() error {
			if err := l.Enter(th, 2); err != nil {
				return err
			}
			if err := l.Guard(th, 1, func() error { return nil }); !errors.Is(err, ErrNotChild) {
				t.Errorf("re-guard from wrong parent err = %v", err)
			}
			return l.Exit(th)
		})
	})
}

func TestDeinitInvalidatesContext(t *testing.T) {
	p, l := newLib(t)
	run(t, p, func(th *proc.Thread) error {
		return l.Guard(th, 1, func() error {
			if err := l.Deinit(th, 1); err != nil {
				return err
			}
			if err := l.Enter(th, 1); !errors.Is(err, ErrNoContext) {
				t.Errorf("enter after deinit err = %v", err)
			}
			return nil
		})
	})
}

func TestDeinitErrors(t *testing.T) {
	p, l := newLib(t)
	run(t, p, func(th *proc.Thread) error {
		if err := l.Deinit(th, 42); !errors.Is(err, ErrUnknownDomain) {
			t.Errorf("deinit unknown err = %v", err)
		}
		if err := l.Deinit(th, RootUDI); !errors.Is(err, ErrRootOperation) {
			t.Errorf("deinit root err = %v", err)
		}
		return nil
	})
}

func TestDestroyErrors(t *testing.T) {
	p, l := newLib(t)
	run(t, p, func(th *proc.Thread) error {
		if err := l.Destroy(th, 42, NoHeapMerge); !errors.Is(err, ErrUnknownDomain) {
			t.Errorf("destroy unknown err = %v", err)
		}
		if err := l.Destroy(th, RootUDI, NoHeapMerge); !errors.Is(err, ErrRootOperation) {
			t.Errorf("destroy root err = %v", err)
		}
		return l.Guard(th, 1, func() error {
			if err := l.Enter(th, 1); err != nil {
				return err
			}
			if err := l.Destroy(th, 1, NoHeapMerge); !errors.Is(err, ErrDomainBusy) {
				t.Errorf("destroy current err = %v", err)
			}
			return l.Exit(th)
		})
	})
}

func TestStackReusePool(t *testing.T) {
	p, l := newLib(t)
	run(t, p, func(th *proc.Thread) error {
		if err := l.InitDomain(th, 1); err != nil {
			return err
		}
		d1 := l.state(th).domains[1]
		base1 := d1.stackBase
		key1 := d1.key
		if err := l.Destroy(th, 1, NoHeapMerge); err != nil {
			return err
		}
		// The stack mapping survives destruction (reuse optimization).
		if !p.AddressSpace().Mapped(base1, 1) {
			t.Error("stack unmapped despite reuse pool")
		}
		if err := l.InitDomain(th, 2); err != nil {
			return err
		}
		d2 := l.state(th).domains[2]
		if d2.stackBase != base1 || d2.key != key1 {
			t.Errorf("stack not reused: base %#x->%#x key %d->%d",
				uint64(base1), uint64(d2.stackBase), key1, d2.key)
		}
		return l.Destroy(th, 2, NoHeapMerge)
	})
}

func TestStackReuseDisabled(t *testing.T) {
	p, l := newLib(t, WithStackReuse(false))
	run(t, p, func(th *proc.Thread) error {
		if err := l.InitDomain(th, 1); err != nil {
			return err
		}
		d1 := l.state(th).domains[1]
		base1 := d1.stackBase
		if err := l.Destroy(th, 1, NoHeapMerge); err != nil {
			return err
		}
		if p.AddressSpace().Mapped(base1, 1) {
			t.Error("stack still mapped with reuse disabled")
		}
		return nil
	})
}

func TestKeyExhaustion(t *testing.T) {
	p, l := newLib(t)
	run(t, p, func(th *proc.Thread) error {
		// Keys: 0 (default), root, monitor => 13 left.
		var made []UDI
		for i := UDI(1); ; i++ {
			err := l.InitDomain(th, i)
			if err != nil {
				if !errors.Is(err, ErrTooManyDomains) {
					t.Fatalf("unexpected init error: %v", err)
				}
				break
			}
			made = append(made, i)
		}
		if len(made) != 13 {
			t.Errorf("created %d domains before exhaustion, want 13", len(made))
		}
		// Destroying one frees a slot (stack pooled with its key).
		if err := l.Destroy(th, made[0], NoHeapMerge); err != nil {
			return err
		}
		if err := l.InitDomain(th, 99); err != nil {
			t.Errorf("init after destroy: %v", err)
		}
		return nil
	})
}

func TestHandlerAtGrandparentFig2(t *testing.T) {
	// Figure 2: transient outer domain T, persistent nested domain P with
	// handler-at-grandparent. A fault in P rewinds past T's guard to the
	// root-level recovery point.
	p, l := newLib(t)
	const (
		udiT = UDI(1)
		udiP = UDI(2)
	)
	run(t, p, func(th *proc.Thread) error {
		reachedAfterInner := false
		err := l.Guard(th, udiT, func() error {
			if err := l.Enter(th, udiT); err != nil {
				return err
			}
			err := l.Guard(th, udiP, func() error {
				if err := l.Enter(th, udiP); err != nil {
					return err
				}
				th.CPU().WriteU8(0xDEAD0000, 1) // fault inside P
				return nil
			}, HandlerAtGrandparent())
			// Unreachable: the rewind targets T's scope and unwinds
			// through this point.
			reachedAfterInner = true
			return err
		})
		var abn *AbnormalExit
		if !errors.As(err, &abn) {
			t.Fatalf("outer guard err = %v", err)
		}
		if abn.FailedUDI != udiP {
			t.Errorf("failed udi = %d, want %d (P)", abn.FailedUDI, udiP)
		}
		if reachedAfterInner {
			t.Error("inner guard returned instead of unwinding")
		}
		if l.Current(th) != RootUDI {
			t.Errorf("current = %d, want root", l.Current(th))
		}
		// T survives (memory intact) but its context is gone; the error
		// handler may destroy or re-guard it (paper's choice).
		if err := l.Enter(th, udiT); !errors.Is(err, ErrNoContext) {
			t.Errorf("T context after rewind = %v", err)
		}
		return l.Destroy(th, udiT, NoHeapMerge)
	})
	if p.Killed() {
		t.Error("process died")
	}
}

func TestDeepNestingThreeLevels(t *testing.T) {
	p, l := newLib(t)
	run(t, p, func(th *proc.Thread) error {
		return l.Guard(th, 1, func() error {
			if err := l.Enter(th, 1); err != nil {
				return err
			}
			err := l.Guard(th, 2, func() error {
				if err := l.Enter(th, 2); err != nil {
					return err
				}
				err := l.Guard(th, 3, func() error {
					if err := l.Enter(th, 3); err != nil {
						return err
					}
					if l.Current(th) != 3 {
						t.Error("not in level-3 domain")
					}
					return l.Exit(th)
				})
				if err != nil {
					return err
				}
				if l.Current(th) != 2 {
					t.Error("not back in level 2")
				}
				return l.Exit(th)
			})
			if err != nil {
				return err
			}
			return l.Exit(th)
		})
	})
}

func TestRewindFromMiddleLevel(t *testing.T) {
	// Fault in level-2 domain: level-2 guard catches; level-1 continues.
	p, l := newLib(t)
	run(t, p, func(th *proc.Thread) error {
		return l.Guard(th, 1, func() error {
			if err := l.Enter(th, 1); err != nil {
				return err
			}
			err := l.Guard(th, 2, func() error {
				if err := l.Enter(th, 2); err != nil {
					return err
				}
				th.CPU().WriteU8(0xDEAD0000, 1)
				return nil
			})
			var abn *AbnormalExit
			if !errors.As(err, &abn) || abn.FailedUDI != 2 {
				t.Fatalf("inner guard err = %v", err)
			}
			if l.Current(th) != 1 {
				t.Errorf("current = %d, want 1", l.Current(th))
			}
			// Level-1 can keep working after the nested rewind.
			ptr, err := l.Malloc(th, 1, 8)
			if err != nil {
				return err
			}
			th.CPU().WriteU64(ptr, 7)
			return l.Exit(th)
		}, Accessible())
	})
}

func TestMultithreadedIsolation(t *testing.T) {
	p, l := newLib(t)
	const udi = UDI(6)
	barrier := make(chan struct{})
	worker := func(val byte) func(th *proc.Thread) error {
		return func(th *proc.Thread) error {
			// Same UDI on two threads: independent domains.
			return l.Guard(th, udi, func() error {
				ptr, err := l.Malloc(th, udi, 8)
				if err != nil {
					return err
				}
				if err := l.Enter(th, udi); err != nil {
					return err
				}
				th.CPU().WriteU8(ptr, val)
				<-barrier
				if got := th.CPU().ReadU8(ptr); got != val {
					t.Errorf("thread saw %d, want %d", got, val)
				}
				return l.Exit(th)
			}, Accessible())
		}
	}
	h1 := p.Spawn("w1", worker(1))
	h2 := p.Spawn("w2", worker(2))
	close(barrier)
	if err := h1.Join(); err != nil {
		t.Fatal(err)
	}
	if err := h2.Join(); err != nil {
		t.Fatal(err)
	}
}

func TestRewindOnOneThreadLeavesOthersRunning(t *testing.T) {
	p, l := newLib(t)
	faulted := make(chan struct{})
	hVictim := p.Spawn("victim", func(th *proc.Thread) error {
		err := l.Guard(th, 1, func() error {
			if err := l.Enter(th, 1); err != nil {
				return err
			}
			th.CPU().WriteU8(0xDEAD0000, 1)
			return nil
		})
		close(faulted)
		var abn *AbnormalExit
		if !errors.As(err, &abn) {
			t.Errorf("victim err = %v", err)
		}
		return nil
	})
	hOther := p.Spawn("other", func(th *proc.Thread) error {
		<-faulted
		// The other thread is unaffected: it can create and use domains.
		return l.Guard(th, 1, func() error {
			if err := l.Enter(th, 1); err != nil {
				return err
			}
			return l.Exit(th)
		})
	})
	if err := hVictim.Join(); err != nil {
		t.Fatal(err)
	}
	if err := hOther.Join(); err != nil {
		t.Fatal(err)
	}
	if p.Killed() {
		t.Error("process died")
	}
}

func TestMallocResolutionErrors(t *testing.T) {
	p, l := newLib(t)
	run(t, p, func(th *proc.Thread) error {
		if _, err := l.Malloc(th, 42, 8); !errors.Is(err, ErrUnknownDomain) {
			t.Errorf("malloc unknown err = %v", err)
		}
		// Inaccessible child: parent cannot malloc into it.
		if err := l.InitDomain(th, 1); err != nil {
			return err
		}
		if _, err := l.Malloc(th, 1, 8); !errors.Is(err, ErrNotChild) {
			t.Errorf("malloc into inaccessible err = %v", err)
		}
		// Free into a domain whose heap was never initialized.
		if err := l.InitDomain(th, 2, Accessible()); err != nil {
			return err
		}
		if err := l.Free(th, 2, 0x1000); err == nil {
			t.Error("free with uninitialized heap succeeded")
		}
		return nil
	})
}

func TestHeapExhaustionError(t *testing.T) {
	p, l := newLib(t)
	run(t, p, func(th *proc.Thread) error {
		if err := l.InitDomain(th, 1, Accessible(), HeapSize(32*1024)); err != nil {
			return err
		}
		if _, err := l.Malloc(th, 1, 1<<20); !errors.Is(err, ErrHeapExhausted) {
			t.Errorf("oversized malloc err = %v", err)
		}
		return nil
	})
}

func TestScrubOnDiscard(t *testing.T) {
	p, l := newLib(t, WithScrubOnDiscard(true))
	run(t, p, func(th *proc.Thread) error {
		if err := l.InitDomain(th, 1, Accessible()); err != nil {
			return err
		}
		d := l.state(th).domains[1]
		stackBase := d.stackBase
		ptr, err := l.Malloc(th, 1, 64)
		if err != nil {
			return err
		}
		th.CPU().Memset(ptr, 0x55, 64)
		if err := l.Destroy(th, 1, NoHeapMerge); err != nil {
			return err
		}
		// The pooled (still mapped) stack was scrubbed.
		buf := make([]byte, 64)
		if err := p.AddressSpace().KernelRead(stackBase, buf); err != nil {
			return err
		}
		for _, b := range buf {
			if b != 0 {
				t.Fatal("stack not scrubbed")
			}
		}
		return nil
	})
}

func TestDProtectErrors(t *testing.T) {
	p, l := newLib(t)
	run(t, p, func(th *proc.Thread) error {
		if err := l.InitDomain(th, 1); err != nil {
			return err
		}
		if err := l.DProtect(th, 1, 42, mem.ProtRead); !errors.Is(err, ErrUnknownDomain) {
			t.Errorf("dprotect unknown target err = %v", err)
		}
		if err := l.InitDomain(th, 2, AsData()); err != nil {
			return err
		}
		if err := l.DProtect(th, 42, 2, mem.ProtRead); !errors.Is(err, ErrNotChild) {
			t.Errorf("dprotect unknown subject err = %v", err)
		}
		// Revoking a grant with ProtNone.
		if err := l.DProtect(th, 1, 2, mem.ProtRW); err != nil {
			return err
		}
		if err := l.DProtect(th, 1, 2, mem.ProtNone); err != nil {
			return err
		}
		d := l.state(th).domains[1]
		if _, ok := d.grants[l.lookupDataDomain(2)]; ok {
			t.Error("grant not revoked")
		}
		return nil
	})
}

func TestMonitorLedgerCountsCalls(t *testing.T) {
	p, l := newLib(t)
	run(t, p, func(th *proc.Thread) error {
		before := l.Stats().MonitorCalls.Load()
		if err := l.InitDomain(th, 1); err != nil {
			return err
		}
		if l.Stats().MonitorCalls.Load() <= before {
			t.Error("monitor calls not counted")
		}
		// The ledger inside the monitor data domain advanced too (sharded
		// into per-thread slots; sum them).
		var buf [mem.PageSize]byte
		if err := p.AddressSpace().KernelRead(l.MonitorBase(), buf[:]); err != nil {
			return err
		}
		var n uint64
		for off := 0; off < len(buf); off += 16 {
			n += uint64(buf[off]) | uint64(buf[off+1])<<8 | uint64(buf[off+2])<<16 | uint64(buf[off+3])<<24
		}
		if n == 0 {
			t.Error("monitor ledger empty")
		}
		return nil
	})
}

func TestKindString(t *testing.T) {
	if ExecDomain.String() != "exec" || DataDomain.String() != "data" || Kind(9).String() != "unknown" {
		t.Error("Kind.String broken")
	}
}

func TestAbnormalExitErrorText(t *testing.T) {
	e := &AbnormalExit{FailedUDI: 3, Signal: sig.SIGSEGV, Code: 4, Addr: 0x1000}
	if e.Error() == "" {
		t.Error("empty error")
	}
	inner := &mem.Fault{Addr: 0x1000, Kind: mem.AccessWrite, Code: mem.CodePkuErr}
	e.Cause = inner
	var f *mem.Fault
	if !errors.As(e, &f) {
		t.Error("unwrap chain broken")
	}
}
