package proc

import (
	"errors"
	"sync/atomic"
	"testing"

	"sdrad/internal/mem"
	"sdrad/internal/sig"
	"sdrad/internal/stack"
	"sdrad/internal/telemetry"
)

func TestAttachRunsBody(t *testing.T) {
	p := NewProcess("test")
	ran := false
	err := p.Attach("main", func(th *Thread) error {
		ran = true
		if th.ID() == 0 || th.Name() != "main" || th.Process() != p {
			t.Error("thread identity wrong")
		}
		if th.CPU().PKRU() != mem.PKRUInit {
			t.Error("thread PKRU not initialized")
		}
		return nil
	})
	if err != nil || !ran {
		t.Fatalf("attach = %v, ran = %v", err, ran)
	}
}

func TestBodyErrorPropagates(t *testing.T) {
	p := NewProcess("test")
	want := errors.New("boom")
	if err := p.Attach("main", func(*Thread) error { return want }); !errors.Is(err, want) {
		t.Errorf("err = %v", err)
	}
	if p.Killed() {
		t.Error("body error should not kill the process")
	}
}

func TestUnhandledFaultKillsProcess(t *testing.T) {
	p := NewProcess("victim")
	err := p.Attach("main", func(th *Thread) error {
		th.CPU().WriteU8(0xBAD0000, 1) // unmapped
		return nil
	})
	var crash *CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("err = %v, want CrashError", err)
	}
	if crash.Info.Signal != sig.SIGSEGV || crash.Info.Code != int(mem.CodeMapErr) {
		t.Errorf("info = %+v", crash.Info)
	}
	if !p.Killed() {
		t.Error("process should be dead")
	}
	if p.ExitError() == nil {
		t.Error("exit error not recorded")
	}
	select {
	case <-p.Done():
	default:
		t.Error("Done channel not closed")
	}
	if crash.Error() == "" {
		t.Error("empty crash message")
	}
}

func TestStackSmashDeliversSIGABRT(t *testing.T) {
	p := NewProcess("victim")
	err := p.Attach("main", func(th *Thread) error {
		as := p.AddressSpace()
		base, _ := as.MapAnon(4096, mem.ProtRW, 0)
		s := stack.New(base, 4096, p.Rand64())
		f, _ := s.PushFrame(th.CPU(), 32)
		th.CPU().Memset(f.Locals(), 0x61, 40) // smash: locals + canary
		return f.Pop(th.CPU())
	})
	var crash *CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("err = %v", err)
	}
	if crash.Info.Signal != sig.SIGABRT {
		t.Errorf("signal = %v, want SIGABRT", crash.Info.Signal)
	}
}

func TestForeignPanicPropagates(t *testing.T) {
	p := NewProcess("test")
	defer func() {
		if recover() == nil {
			t.Error("foreign panic was swallowed")
		}
	}()
	_ = p.Attach("main", func(*Thread) error { panic("programming error") })
}

func TestSpawnAndJoin(t *testing.T) {
	p := NewProcess("test")
	var count atomic.Int64
	var handles []*Handle
	for i := 0; i < 8; i++ {
		handles = append(handles, p.Spawn("w", func(th *Thread) error {
			count.Add(1)
			return nil
		}))
	}
	for _, h := range handles {
		if err := h.Join(); err != nil {
			t.Fatal(err)
		}
	}
	if count.Load() != 8 {
		t.Errorf("count = %d", count.Load())
	}
	p.Wait()
}

func TestThreadIDsUnique(t *testing.T) {
	p := NewProcess("test")
	seen := make(chan int, 16)
	var hs []*Handle
	for i := 0; i < 16; i++ {
		hs = append(hs, p.Spawn("w", func(th *Thread) error {
			seen <- th.ID()
			return nil
		}))
	}
	for _, h := range hs {
		_ = h.Join()
	}
	close(seen)
	ids := make(map[int]bool)
	for id := range seen {
		if ids[id] {
			t.Fatalf("duplicate thread id %d", id)
		}
		ids[id] = true
	}
}

func TestThreadConstructors(t *testing.T) {
	p := NewProcess("test")
	p.RegisterThreadConstructor(func(th *Thread) error {
		th.Local = "constructed-" + th.Name()
		return nil
	})
	err := p.Attach("main", func(th *Thread) error {
		if th.Local != "constructed-main" {
			t.Errorf("Local = %v", th.Local)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	h := p.Spawn("worker", func(th *Thread) error {
		if th.Local != "constructed-worker" {
			t.Errorf("Local = %v", th.Local)
		}
		return nil
	})
	if err := h.Join(); err != nil {
		t.Fatal(err)
	}
}

func TestConstructorErrorAborts(t *testing.T) {
	p := NewProcess("test")
	want := errors.New("ctor failed")
	p.RegisterThreadConstructor(func(*Thread) error { return want })
	ran := false
	err := p.Attach("main", func(*Thread) error { ran = true; return nil })
	if !errors.Is(err, want) || ran {
		t.Errorf("err = %v, ran = %v", err, ran)
	}
}

func TestSpawnAfterTermination(t *testing.T) {
	p := NewProcess("test")
	p.Terminate(errors.New("dead"))
	h := p.Spawn("late", func(*Thread) error { return nil })
	if err := h.Join(); !errors.Is(err, ErrTerminated) {
		t.Errorf("err = %v", err)
	}
	if err := p.Attach("late", func(*Thread) error { return nil }); !errors.Is(err, ErrTerminated) {
		t.Errorf("attach err = %v", err)
	}
}

func TestTerminateIdempotent(t *testing.T) {
	p := NewProcess("test")
	first := errors.New("first")
	p.Terminate(first)
	p.Terminate(errors.New("second"))
	if !errors.Is(p.ExitError(), first) {
		t.Error("first cause did not win")
	}
}

func TestShutdownClean(t *testing.T) {
	p := NewProcess("test")
	p.Shutdown()
	if !p.Killed() || p.ExitError() != nil {
		t.Error("shutdown should kill with nil error")
	}
}

func TestSignalMaskBlockedFaultStillFatal(t *testing.T) {
	p := NewProcess("test")
	err := p.Attach("main", func(th *Thread) error {
		th.SetSigMask(sig.Mask(0).Block(sig.SIGSEGV))
		th.CPU().ReadU8(0xBAD0000)
		return nil
	})
	var crash *CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("err = %v", err)
	}
}

// TestEscapedTrapRecordsOneSignalAndOneCrash: a trap no guard scope
// recovered is recorded by the supervisor, on any build that attached a
// recorder to the address space, as exactly one signal event (the signal,
// si_code and address that killed the process) and one crash event, both
// carrying the faulting thread's id.
func TestEscapedTrapRecordsOneSignalAndOneCrash(t *testing.T) {
	rec := telemetry.New(telemetry.Options{})
	p := NewProcess("test")
	p.AddressSpace().SetTelemetry(rec)
	if err := p.Spawn("bystander", func(*Thread) error { return nil }).Join(); err != nil {
		t.Fatal(err)
	}
	const wild = mem.Addr(0xBAD0000)
	victim := p.Spawn("victim", func(th *Thread) error {
		th.CPU().WriteU8(wild, 1)
		return nil
	})
	var crash *CrashError
	if err := victim.Join(); !errors.As(err, &crash) {
		t.Fatalf("err = %v", err)
	}
	tid := victim.Thread().ID()
	var signals, crashes int
	for _, ev := range rec.Flight().Snapshot() {
		switch ev.Kind {
		case "signal":
			signals++
			if ev.Thread != tid || ev.PKey != int(sig.SIGSEGV) || ev.Code != int(mem.CodeMapErr) || ev.Addr != uint64(wild) {
				t.Errorf("signal event %+v, want thread %d, SIGSEGV, SEGV_MAPERR at %#x", ev, tid, uint64(wild))
			}
		case "crash":
			crashes++
			if ev.Thread != tid {
				t.Errorf("crash event on thread %d, want %d", ev.Thread, tid)
			}
		}
	}
	if signals != 1 || crashes != 1 {
		t.Errorf("%d signal and %d crash events, want one each", signals, crashes)
	}
}

func TestRand64Differs(t *testing.T) {
	p := NewProcess("test", WithSeed(99))
	a, b := p.Rand64(), p.Rand64()
	if a == b {
		t.Error("consecutive Rand64 equal")
	}
	q := NewProcess("test2", WithSeed(99))
	if q.Rand64() != a {
		t.Error("seeded sequence not reproducible")
	}
}

func TestWithMemOptions(t *testing.T) {
	p := NewProcess("test", WithMemOptions(mem.WithGuardGap(0)))
	as := p.AddressSpace()
	a, _ := as.MapAnon(mem.PageSize, mem.ProtRW, 0)
	b, _ := as.MapAnon(mem.PageSize, mem.ProtRW, 0)
	if b != a+mem.PageSize {
		t.Errorf("guard gap option not applied: %#x vs %#x", uint64(a), uint64(b))
	}
}
