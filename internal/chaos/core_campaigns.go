package chaos

import (
	"errors"
	"fmt"
	"math/rand"

	"sdrad/internal/core"
	"sdrad/internal/galloc"
	"sdrad/internal/mem"
	"sdrad/internal/proc"
	"sdrad/internal/sig"
	"sdrad/internal/tlsf"
)

// errNoFault is returned by attack bodies that ran to completion: the
// scheduled fault never fired, which is itself a campaign failure.
var errNoFault = errors.New("chaos: scheduled fault did not fire")

// coreEnv is the harness shared by the campaigns that drive the SDRaD
// library directly: one process, one attached thread, scrub-on-discard
// enabled so the audit can prove discarded state was really scrubbed.
type coreEnv struct {
	*auditor
	rng *rand.Rand
	t   *proc.Thread
}

func runCoreCampaign(cfg Config, r *Report, body func(env *coreEnv) error, opts ...core.SetupOption) error {
	p := proc.NewProcess("chaos-"+r.Campaign, proc.WithSeed(cfg.Seed))
	rec := cfg.recorder()
	lib, err := core.Setup(p, append([]core.SetupOption{core.WithScrubOnDiscard(true), core.WithTelemetry(rec)}, opts...)...)
	if err != nil {
		return err
	}
	defer p.Shutdown()
	return p.Attach("chaos", func(t *proc.Thread) error {
		return body(&coreEnv{auditor: newAuditor(r, lib, rec), rng: rand.New(rand.NewSource(cfg.Seed)), t: t})
	})
}

// region is a domain's provisioned heap, read out of an audit snapshot
// for the post-rewind residual-mapping check.
type region struct {
	base mem.Addr
	size uint64
}

func heapOf(rep *core.AuditReport, udi core.UDI) region {
	for _, d := range rep.Domains {
		if d.UDI == udi {
			return region{d.HeapBase, d.HeapSize}
		}
	}
	return region{}
}

// scope runs one guarded operation in udi through the prologue every
// attack shares: allocate alloc bytes in the domain (none when 0), audit
// the library before the attack and read the domain's heap region from
// that audit, Enter, then body. It returns the region and the guard's
// error.
func (env *coreEnv) scope(label string, udi core.UDI, alloc uint64, body func(buf mem.Addr, heap region) error) (region, error) {
	var heap region
	gerr := env.lib.Guard(env.t, udi, func() error {
		var buf mem.Addr
		if alloc > 0 {
			var err error
			if buf, err = env.lib.Malloc(env.t, udi, alloc); err != nil {
				return err
			}
		}
		heap = heapOf(env.auditOn(env.t, label+" pre-attack"), udi)
		if err := env.lib.Enter(env.t, udi); err != nil {
			return err
		}
		return body(buf, heap)
	}, core.Accessible())
	return heap, gerr
}

// benign checks an operation that must not trap: it succeeded, was calm,
// and left the library auditing clean.
func (env *coreEnv) benign(label string, b before, gerr error) {
	if gerr != nil {
		env.r.failf("%s: benign op failed: %v", label, gerr)
	}
	env.calm(label, b)
	env.auditOn(env.t, label)
	env.r.event("%s ok", label)
}

// rewound checks an operation that must have exited udi abnormally, then
// runs the post-rewind audit: the library audit, residual mappings of the
// discarded heap, and mapped-bytes stability at the discarded steady
// state.
func (env *coreEnv) rewound(label string, b before, gerr error, udi core.UDI, signal sig.Signal, injected bool, heap region) *core.AbnormalExit {
	abn := env.exited(label, b, gerr, udi, signal, injected)
	env.auditOn(env.t, label)
	env.checkDiscarded(label, heap)
	env.checkMappedStable("post-rewind", label)
	return abn
}

// wildCode reports whether a fault code is one an out-of-bounds access
// may raise: unmapped, protected, or another domain's key.
func wildCode(code int) bool {
	c := mem.FaultCode(code)
	return c == mem.CodeMapErr || c == mem.CodeAccErr || c == mem.CodePkuErr
}

// runPKU provokes protection-key violations from inside a nested domain:
// writes and reads of the monitor data domain, writes to the read-only
// root heap, writes to an ungranted data domain, and injector-raised PKU
// faults. Every violation must be absorbed by a rewind of the victim.
func runPKU(cfg Config, r *Report) error {
	const (
		victimUDI = core.UDI(2)
		dataUDI   = core.UDI(7)
	)
	return runCoreCampaign(cfg, r, func(env *coreEnv) error {
		t, lib, c := env.t, env.lib, env.t.CPU()

		rootBuf, err := lib.Malloc(t, core.RootUDI, 128)
		if err != nil {
			return err
		}
		// An inaccessible data domain with no grants: its pages are mapped
		// with a key nobody's policy raises — a pure PKU tripwire.
		if err := lib.InitDomain(t, dataUDI, core.AsData()); err != nil {
			return err
		}
		data := heapOf(env.auditOn(t, "setup"), dataUDI)
		if data.base == 0 {
			return fmt.Errorf("chaos: data domain %d has no heap region", dataUDI)
		}

		vectors := []string{"monitor-write", "monitor-read", "root-write", "data-write", "inject", "benign"}
		for i := 0; i < cfg.Ops; i++ {
			vector := vectors[env.rng.Intn(len(vectors))]
			countdown := 1 + env.rng.Intn(4)
			label := fmt.Sprintf("op=%02d %s", i, vector)
			b := env.before()
			heap, gerr := env.scope(label, victimUDI, 128, func(buf mem.Addr, _ region) error {
				if vector == "inject" {
					armGated(lib, t, countdown, mem.CodePkuErr)
				}
				for j := 0; j < 4; j++ { // benign in-domain work; hosts the injected fault
					c.WriteU64(buf+mem.Addr(8*j), uint64(i)<<8|uint64(j))
				}
				switch vector {
				case "monitor-write":
					c.WriteU64(lib.MonitorBase(), 0xdead)
				case "monitor-read":
					_ = c.ReadU64(lib.MonitorBase())
				case "root-write":
					c.WriteU64(rootBuf, 0xdead)
				case "data-write":
					c.WriteU64(data.base, 0xdead)
				case "benign":
					return lib.Exit(t)
				}
				return errNoFault
			})

			if vector == "benign" {
				env.benign(label, b, gerr)
				continue
			}
			abn := env.rewound(label, b, gerr, victimUDI, sig.SIGSEGV, vector == "inject", heap)
			if vector == "inject" && c.FaultInjectorArmed() {
				r.failf("%s: injector still armed after firing", label)
			}
			if abn != nil {
				if abn.Code != int(mem.CodePkuErr) {
					r.failf("%s: fault code %d, want SEGV_PKUERR", label, abn.Code)
				}
				r.event("%s code=SEGV_PKUERR addr=0x%x rewind", label, abn.Addr)
			}
		}
		return nil
	})
}

// runCanary corrupts stack canaries inside a nested domain — a local
// frame's canary popped by the function, an outer frame's canary reached
// by a deeper overflow, and the Enter return record verified during Exit —
// and checks each smash is absorbed as a SIGABRT rewind.
func runCanary(cfg Config, r *Report) error {
	const victimUDI = core.UDI(3)
	return runCoreCampaign(cfg, r, func(env *coreEnv) error {
		t, lib, c := env.t, env.lib, env.t.CPU()
		vectors := []string{"pop-smash", "outer-smash", "exit-smash", "benign"}
		junk := make([]byte, 24)
		for i := range junk {
			junk[i] = 0x6b
		}
		for i := 0; i < cfg.Ops; i++ {
			vector := vectors[env.rng.Intn(len(vectors))]
			// 8 smashes the frame's own canary; 16 also clobbers the Enter
			// return record above it. 24 would run past the stack top into
			// unmapped memory, turning the canary oracle into a SIGSEGV.
			overrun := 8 * (1 + env.rng.Intn(2))
			label := fmt.Sprintf("op=%02d %s", i, vector)
			b := env.before()
			heap, gerr := env.scope(label, victimUDI, 0, func(mem.Addr, region) error {
				stk, err := lib.Stack(t, victimUDI)
				if err != nil {
					return err
				}
				switch vector {
				case "pop-smash":
					// Overflow the frame's own locals into its canary; the
					// pop is the __stack_chk_fail analog.
					f, err := stk.PushFrame(c, 64)
					if err != nil {
						return err
					}
					c.Write(f.Locals()+64, junk[:overrun])
					return f.Pop(c)
				case "outer-smash":
					// A deeper frame overflows far enough to clobber its
					// caller's canary; the inner pop is clean and the outer
					// pop detects the smash.
					outer, err := stk.PushFrame(c, 32)
					if err != nil {
						return err
					}
					inner, err := stk.PushFrame(c, 64)
					if err != nil {
						return err
					}
					// inner locals (64) + inner canary (8) + outer locals (32)
					// puts the outer canary 104 bytes above inner.Locals().
					c.Write(inner.Locals()+104, junk[:8])
					if err := inner.Pop(c); err != nil {
						return err
					}
					return outer.Pop(c)
				case "exit-smash":
					// Clobber the Enter return record at the stack top; Exit
					// verifies it and must detect the smash.
					c.WriteU64(stk.Base()+mem.Addr(stk.Size())-8, 0x6b6b6b6b6b6b6b6b)
					return lib.Exit(t)
				default: // benign
					f, err := stk.PushFrame(c, 64)
					if err != nil {
						return err
					}
					c.Write(f.Locals(), junk[:16]) // stays inside the locals
					if err := f.Pop(c); err != nil {
						return err
					}
					return lib.Exit(t)
				}
			})

			if vector == "benign" {
				env.benign(label, b, gerr)
				continue
			}
			// Canary smashes are detected by the stack protector, not the
			// MMU: the fault log must not have moved.
			if abn := env.rewound(label, b, gerr, victimUDI, sig.SIGABRT, false, heap); abn != nil {
				r.event("%s SIGABRT addr=0x%x rewind", label, abn.Addr)
			}
		}
		return nil
	})
}

// runOOB provokes out-of-bounds and unmapped accesses from inside a
// nested domain: heap overruns past the domain's provisioned region, and
// wild reads/writes of low and high unmapped addresses.
func runOOB(cfg Config, r *Report) error {
	const victimUDI = core.UDI(4)
	return runCoreCampaign(cfg, r, func(env *coreEnv) error {
		t, lib, c := env.t, env.lib, env.t.CPU()
		vectors := []string{"heap-overrun", "wild-low", "wild-high", "benign"}
		for i := 0; i < cfg.Ops; i++ {
			vector := vectors[env.rng.Intn(len(vectors))]
			offset := mem.Addr(8 * env.rng.Intn(64))
			label := fmt.Sprintf("op=%02d %s", i, vector)
			b := env.before()
			heap, gerr := env.scope(label, victimUDI, 64, func(buf mem.Addr, heap region) error {
				c.WriteU64(buf, uint64(i))
				switch vector {
				case "heap-overrun":
					// First address past the provisioned heap region: either
					// unmapped or another domain's pages — a trap either way.
					c.WriteU64(heap.base+mem.Addr(heap.size)+offset, 0xdead)
				case "wild-low":
					_ = c.ReadU8(0x10 + offset)
				case "wild-high":
					c.WriteU8(mem.Addr(1<<40)+offset, 0xff)
				case "benign":
					return lib.Exit(t)
				}
				return errNoFault
			})

			if vector == "benign" {
				env.benign(label, b, gerr)
				continue
			}
			if abn := env.rewound(label, b, gerr, victimUDI, sig.SIGSEGV, false, heap); abn != nil {
				if !wildCode(abn.Code) {
					r.failf("%s: unexpected fault code %d", label, abn.Code)
				}
				r.event("%s code=%v addr=0x%x rewind", label, mem.FaultCode(abn.Code), abn.Addr)
			}
		}
		return nil
	})
}

// errInjectedOOM is the sentinel the allocation-fault hooks return.
var errInjectedOOM = errors.New("chaos: injected allocation failure")

// allocBlock is one live allocation with its fill pattern.
type allocBlock struct {
	ptr  mem.Addr
	size int
	fill byte
}

// runAlloc injects allocation failures into the tlsf and galloc
// allocators under a randomized alloc/free load. For this campaign
// Injected counts hook-raised OOMs and Absorbed counts the errors the
// caller observed: every injected failure must surface as a clean error,
// leave the heap invariants intact (tlsf Check), and corrupt no live
// allocation.
func runAlloc(cfg Config, r *Report) error {
	p := proc.NewProcess("chaos-alloc", proc.WithSeed(cfg.Seed))
	defer p.Shutdown()
	return p.Attach("chaos", func(t *proc.Thread) error {
		rng := rand.New(rand.NewSource(cfg.Seed))
		as, c := p.AddressSpace(), t.CPU()

		tb, err := as.MapAnon(128<<10, mem.ProtRW, 0)
		if err != nil {
			return err
		}
		th, err := tlsf.Init(c, tb, 128<<10)
		if err != nil {
			return err
		}
		gb, err := as.MapAnon(64<<10, mem.ProtRW, 0)
		if err != nil {
			return err
		}
		gh, err := galloc.Init(c, gb, 64<<10)
		if err != nil {
			return err
		}

		verify := func(label string, live []allocBlock) {
			if err := th.Check(c); err != nil {
				r.failf("%s: tlsf check: %v", label, err)
			}
			for _, b := range live {
				for off := 0; off < b.size; off += 64 {
					if got := c.ReadU8(b.ptr + mem.Addr(off)); got != b.fill {
						r.failf("%s: live block 0x%x corrupted at +%d: 0x%02x, want 0x%02x",
							label, uint64(b.ptr), off, got, b.fill)
						break
					}
				}
			}
		}

		var tlive, glive []allocBlock
		for i := 0; i < cfg.Ops; i++ {
			useTLSF := rng.Intn(2) == 0
			name := "galloc"
			if useTLSF {
				name = "tlsf"
			}
			size := 16 << rng.Intn(6)
			inject := rng.Intn(3) == 0
			free := rng.Intn(4) == 0
			label := fmt.Sprintf("op=%02d %s", i, name)

			live := &glive
			alloc := func(sz uint64) (mem.Addr, error) { return gh.Alloc(c, sz) }
			release := func(ptr mem.Addr) error { return gh.Free(c, ptr) }
			hook := gh.SetAllocHook
			if useTLSF {
				live = &tlive
				alloc = func(sz uint64) (mem.Addr, error) { return th.Alloc(c, sz) }
				release = func(ptr mem.Addr) error { return th.Free(c, ptr) }
				hook = th.SetAllocHook
			}

			if free && len(*live) > 0 {
				idx := rng.Intn(len(*live))
				b := (*live)[idx]
				if err := release(b.ptr); err != nil {
					r.failf("%s: free 0x%x: %v", label, uint64(b.ptr), err)
				}
				*live = append((*live)[:idx], (*live)[idx+1:]...)
				verify(label, *live)
				r.event("%s free size=%d", label, b.size)
				continue
			}

			if inject {
				hook(func(uint64) error { return errInjectedOOM })
				r.Injected++
			}
			ptr, err := alloc(uint64(size))
			hook(nil)
			switch {
			case inject:
				if errors.Is(err, errInjectedOOM) {
					r.Absorbed++
				} else {
					r.failf("%s: injected OOM not surfaced: ptr=0x%x err=%v", label, uint64(ptr), err)
				}
				verify(label, *live)
				r.event("%s alloc size=%d injected-oom", label, size)
			case err != nil:
				// Genuine exhaustion under load is legitimate; record it.
				verify(label, *live)
				r.event("%s alloc size=%d oom", label, size)
			default:
				fill := byte(0x11 + i%0xe0)
				for off := 0; off < size; off += 64 {
					c.WriteU8(ptr+mem.Addr(off), fill)
				}
				*live = append(*live, allocBlock{ptr: ptr, size: size, fill: fill})
				verify(label, *live)
				r.event("%s alloc size=%d ok", label, size)
			}
		}

		// Drain both heaps; every allocation must free cleanly and the
		// final check must pass with empty free-list damage.
		for _, b := range tlive {
			if err := th.Free(c, b.ptr); err != nil {
				r.failf("drain: tlsf free 0x%x: %v", uint64(b.ptr), err)
			}
		}
		for _, b := range glive {
			if err := gh.Free(c, b.ptr); err != nil {
				r.failf("drain: galloc free 0x%x: %v", uint64(b.ptr), err)
			}
		}
		if err := th.Check(c); err != nil {
			r.failf("drain: tlsf check: %v", err)
		}
		if got := th.AllocCount() - th.FreeCount(); got != 0 {
			r.failf("drain: tlsf alloc/free imbalance: %d", got)
		}
		r.event("drain ok tlsf-allocs=%d galloc-allocs=%d", th.AllocCount(), gh.AllocCount())
		return nil
	})
}
