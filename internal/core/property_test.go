package core

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"sdrad/internal/mem"
	"sdrad/internal/proc"
	"sdrad/internal/sig"
	"sdrad/internal/telemetry"
	"sdrad/internal/tlsf"
)

// The drivers below run random operation sequences against core and the
// reference model (model_test.go) side by side and compare the two after
// every step: each call's error, and for an abnormal exit its domain,
// signal and si_code (and, on one thread, its forensics report); then
// the rewinds, forensics reports and fault-log entries; the library audit
// — clean, back in root, listing exactly the model's domains and stack
// pool; the mapped bytes; and the bytes of every live allocation of every
// surviving domain.

// Region sizes the drivers set the library up with.
const (
	mStack    = 16 << 10
	mHeap     = 32 << 10
	mDataHeap = 16 << 10
	mRootHeap = 256 << 10
)

func modelLib(t *testing.T, seed int64, opts ...SetupOption) (*proc.Process, *Library, *telemetry.Recorder) {
	rec := telemetry.New(telemetry.Options{})
	p := proc.NewProcess("model", proc.WithSeed(seed))
	l, err := Setup(p, append([]SetupOption{WithTelemetry(rec), WithDefaultStackSize(mStack),
		WithDefaultHeapSize(mHeap), WithRootHeapSize(mRootHeap)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return p, l, rec
}

// driver steps one thread of core and of the model.
type driver struct {
	l    *Library
	rec  *telemetry.Recorder
	th   *proc.Thread
	mt   *mThread
	rng  *rand.Rand
	step string
	// anchor is a root allocation scopes commit to after a normal Exit.
	anchor mem.Addr
	// want is what the Guard the driver is in must return.
	want error
	// mine are the thread's allocations in the shared data domain.
	mine []mem.Addr
	base int64 // mapped bytes before the first step
}

// modelFailure is a disagreement between core and the model. failf
// panics with it, so a driver can fail from a spawned thread; caught
// turns it back into an error on the thread.
type modelFailure string

func (d *driver) failf(format string, args ...any) {
	panic(modelFailure(d.step + ": " + fmt.Sprintf(format, args...)))
}

func caught(fn func()) (err error) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case modelFailure:
			err = errors.New(string(r))
		default:
			panic(r)
		}
	}()
	fn()
	return nil
}

// abn is the abnormal exit the model expects of the current domain.
func (d *driver) abn(signal sig.Signal, code mem.FaultCode) *AbnormalExit {
	return &AbnormalExit{FailedUDI: d.mt.current.udi, Signal: signal, Code: int(code)}
}

// expect compares a call's error with the model's.
func (d *driver) expect(what string, got, want error) {
	var g, w *AbnormalExit
	switch {
	case errors.As(want, &w):
		if !errors.As(got, &g) || g.FailedUDI != w.FailedUDI || g.Signal != w.Signal || g.Code != w.Code {
			d.failf("%s returned %v, model: %v", what, got, w)
		}
		if rep, _ := d.rec.Forensics().Last(); d.mt.m.threads == 1 && (rep.FailedUDI != int(g.FailedUDI) || rep.SiCode != g.Code ||
			rep.Addr != g.Addr || rep.SignalName != g.Signal.String() || g.Signal == sig.SIGABRT && rep.SiCodeName != "STACK_CHK") {
			d.failf("%s: forensics report %+v disagrees with %v", what, rep, g)
		}
	case want == nil && got != nil, want != nil && !errors.Is(got, want):
		d.failf("%s returned %v, model: %v", what, got, want)
	}
}

// pattern is n bytes of one step's data.
func (d *driver) pattern(n int) []byte {
	b := make([]byte, n)
	d.rng.Read(b)
	return b
}

// alloc allocates n bytes in udi on both sides and fills them: a domain
// may write wherever it may allocate.
func (d *driver) alloc(udi UDI, n int, fail bool) (mem.Addr, error) {
	dom, want := d.mt.malloc(udi, fail)
	addr, err := d.l.Malloc(d.th, udi, uint64(n))
	d.expect(fmt.Sprintf("Malloc(%d)", udi), err, want)
	if err == nil {
		b := d.pattern(n)
		d.th.CPU().Write(addr, b)
		d.mt.m.write(dom, addr, b, true)
	}
	return addr, err
}

// release frees dom's lowest allocation once it holds four.
func (d *driver) release(udi UDI, dom *mDomain) {
	if len(dom.allocs) < 4 {
		return
	}
	addr := slices.Min(slices.Collect(maps.Keys(dom.allocs)))
	d.expect("Free", d.l.Free(d.th, udi, addr), d.mt.free(udi, addr))
}

// The vectors a scope's body runs once it has entered its domain.
var vectors = []string{"benign", "commit", "empty", "nested", "alloc-fault", "inject",
	"monitor-write", "monitor-read", "root-write", "data-write", "overrun", "wild-low", "wild-high",
	"pop-smash", "outer-smash", "exit-smash"}

// scope runs one Guard of udi: allocate in the domain, Enter, write the
// allocation, run vector, Exit, and for "commit" copy the allocation's
// first word to the root anchor from root — an effect that exists only if
// the scope exits normally.
func (d *driver) scope(udi UDI, vector string, grants map[UDI]mem.Prot) {
	mt, l, th, c := d.mt, d.l, d.th, d.th.CPU()
	opts := []InitOption{Accessible()}
	for tddi, prot := range grants {
		opts = append(opts, Grant(tddi, prot))
	}
	dom, err := mt.open(udi, true, grants)
	d.want = err
	got := l.Guard(th, udi, func() error {
		if d.want != nil {
			d.failf("Guard(%d) ran a scope the model refuses: %v", udi, d.want)
		}
		if vector == "empty" {
			return nil
		}
		d.release(udi, dom)
		fail := vector == "alloc-fault"
		if fail && d.rng.Intn(2) == 0 {
			// The domain's own TLSF refuses, below the monitor.
			if _, err := d.alloc(udi, 32, false); err != nil {
				return err
			}
			h := l.state(th).domains[udi].heap
			h.SetAllocHook(func(uint64) error { return tlsf.ErrOOM })
			defer h.SetAllocHook(nil)
		} else if fail {
			l.SetAllocFault(func(UDI, uint64) error { return errors.New("injected") })
			defer l.SetAllocFault(nil)
		}
		buf, err := d.alloc(udi, 32+d.rng.Intn(224), fail)
		if err != nil {
			d.want = err
			return err
		}
		mt.enter(dom)
		if err := l.Enter(th, udi); err != nil {
			d.failf("Enter(%d): %v", udi, err)
		}
		b := d.pattern(8)
		c.Write(buf, b)
		mt.m.write(dom, buf, b, false)
		if d.fault(vector, buf) {
			c.WriteU64(buf, 0) // a body that ran past its fault
			return errors.New("scheduled fault did not fire")
		}
		mt.exit()
		if err := l.Exit(th); err != nil {
			d.failf("Exit(%d): %v", udi, err)
		}
		if vector == "commit" {
			c.Copy(d.anchor, buf, 8)
			mt.m.write(mt.m.root, d.anchor, b, false)
		}
		return nil
	}, opts...)
	d.expect(fmt.Sprintf("Guard(%d) %s", udi, vector), got, d.want)
	if abn := (*AbnormalExit)(nil); vector == "inject" && errors.As(d.want, &abn) {
		recs := l.Process().AddressSpace().RecentFaults()
		if c.FaultInjectorArmed() || !recs[len(recs)-1].Injected {
			d.failf("the injector is still armed or its fault is not logged as injected")
		}
	}
}

// fault runs vector inside the entered domain. A vector that traps first
// tells the model and sets d.want; fault returns true when the access
// came back instead.
func (d *driver) fault(vector string, buf mem.Addr) (ran bool) {
	mt, l, th, c := d.mt, d.l, d.th, d.th.CPU()
	udi := mt.current.udi
	trap := func(signal sig.Signal, code mem.FaultCode) {
		d.want = d.abn(signal, code)
		mt.trap(signal == sig.SIGSEGV)
	}
	stk, _ := l.Stack(th, udi)
	junk := bytes.Repeat([]byte{0x6b}, 16)
	switch vector {
	case "nested":
		d.nested()
		return false
	case "inject":
		trap(sig.SIGSEGV, mem.CodePkuErr)
		d.arm(1 + d.rng.Intn(4))
		for j := 0; j < 4; j++ {
			c.WriteU64(buf+mem.Addr(8*j), uint64(j))
		}
	case "monitor-write":
		trap(sig.SIGSEGV, mem.CodePkuErr)
		c.WriteU64(l.MonitorBase(), 0xdead)
	case "monitor-read":
		trap(sig.SIGSEGV, mem.CodePkuErr)
		_ = c.ReadU64(l.MonitorBase())
	case "root-write":
		trap(sig.SIGSEGV, mem.CodePkuErr)
		c.WriteU64(d.anchor, 0xdead)
	case "data-write":
		// An allocation of a data domain, or anywhere in its heap when it
		// has none and the write must trap. Through a grant, the write is
		// this scope's effect on the data domain.
		dd, b := mt.m.data[UDI(7+d.rng.Intn(2))], d.pattern(8)
		if dd == nil {
			return false
		}
		addr := l.lookupDataDomain(dd.udi).heapBase + mem.Addr(8*d.rng.Intn(64))
		if len(dd.allocs) > 0 {
			addr = slices.Min(slices.Collect(maps.Keys(dd.allocs)))
		}
		if !mt.writable(dd) {
			trap(sig.SIGSEGV, mem.CodePkuErr)
		} else if len(dd.allocs) == 0 {
			return false
		}
		c.Write(addr, b)
		mt.m.write(dd, addr, b, false)
		return d.want != nil
	case "overrun":
		// Past the heap's end: MapAnon leaves an unmapped gap after every
		// region.
		trap(sig.SIGSEGV, mem.CodeMapErr)
		dom := l.state(th).domains[udi]
		c.WriteU64(dom.heapBase+mem.Addr(dom.heapSize)+mem.Addr(8*d.rng.Intn(64)), 0xdead)
	case "wild-low":
		trap(sig.SIGSEGV, mem.CodeMapErr)
		_ = c.ReadU8(0x10 + mem.Addr(8*d.rng.Intn(64)))
	case "wild-high":
		trap(sig.SIGSEGV, mem.CodeMapErr)
		c.WriteU8(mem.Addr(1<<40)+mem.Addr(8*d.rng.Intn(64)), 0xff)
	case "pop-smash":
		// Overflow a frame's locals into its canary (8) and on into the
		// Enter return record (16): the pop is __stack_chk_fail.
		trap(sig.SIGABRT, 0)
		f, _ := stk.PushFrame(c, 64)
		c.Write(f.Locals()+64, junk[:8*(1+d.rng.Intn(2))])
		_ = f.Pop(c)
	case "outer-smash":
		// A deeper frame reaches its caller's canary: the inner pop is
		// clean, the outer one is not.
		trap(sig.SIGABRT, 0)
		outer, _ := stk.PushFrame(c, 32)
		inner, _ := stk.PushFrame(c, 64)
		c.Write(inner.Locals()+104, junk[:8])
		if inner.Pop(c) == nil {
			_ = outer.Pop(c)
		}
	case "exit-smash":
		// Clobber the Enter return record: Exit verifies it.
		trap(sig.SIGABRT, 0)
		c.WriteU64(stk.Base()+mem.Addr(stk.Size())-8, 0x6b6b6b6b6b6b6b6b)
		_ = l.Exit(th)
	default: // benign, commit: a frame that stays inside its locals
		f, _ := stk.PushFrame(c, 64)
		c.Write(f.Locals(), junk)
		_ = f.Pop(c)
		return false
	}
	return true
}

// nested guards an inner, inaccessible domain from inside the entered
// one; the inner scope traps half the time, and its rewind returns to its
// own Guard with the outer domain still entered.
func (d *driver) nested() {
	mt, l, th, c := d.mt, d.l, d.th, d.th.CPU()
	inner := UDI(10 + d.rng.Intn(3))
	dom, want := mt.open(inner, false, nil)
	trap := d.rng.Intn(2) == 0
	got := l.Guard(th, inner, func() error {
		if want != nil {
			d.failf("Guard(%d) ran a scope the model refuses: %v", inner, want)
		}
		mt.enter(dom)
		if err := l.Enter(th, inner); err != nil {
			d.failf("Enter(%d): %v", inner, err)
		}
		if trap {
			want = d.abn(sig.SIGSEGV, mem.CodeMapErr)
			mt.trap(true)
			c.WriteU8(mem.Addr(1<<40), 1)
		}
		mt.exit()
		return l.Exit(th)
	})
	d.expect(fmt.Sprintf("nested Guard(%d)", inner), got, want)
	if cur := l.Current(th); cur != mt.current.udi {
		d.failf("in domain %d after the nested Guard, model: %d", cur, mt.current.udi)
	}
}

// arm makes the countdown-th access the thread makes inside a nested
// domain, off the monitor's ledger page, trap with SEGV_PKUERR.
func (d *driver) arm(countdown int) {
	l, th := d.l, d.th
	ledger := l.MonitorBase() &^ (mem.PageSize - 1)
	n := 0
	th.CPU().SetFaultInjector(func(addr mem.Addr, kind mem.AccessKind) *mem.Fault {
		if l.Current(th) == RootUDI || addr&^(mem.PageSize-1) == ledger {
			return nil
		}
		if n++; n < countdown {
			return nil
		}
		return &mem.Fault{Kind: kind, Code: mem.CodePkuErr, PKey: l.RootKey()}
	})
}

// check holds the thread's audit and the bytes of every allocation of the
// root, the thread's domains and the data domains to the model.
func (d *driver) check() {
	m, mt := d.mt.m, d.mt
	rep := d.l.Audit(d.th)
	if !rep.Ok() {
		d.failf("audit: %s", strings.Join(rep.Findings, "; "))
	}
	if rep.CurrentUDI != RootUDI || rep.EnterDepth != 0 {
		d.failf("audit: in domain %d at enter depth %d between steps", rep.CurrentUDI, rep.EnterDepth)
	}
	var got, want []string
	for _, da := range rep.Domains {
		got = append(got, fmt.Sprintf("%v %d", da.Kind, da.UDI))
	}
	doms := []*mDomain{m.root}
	for _, dm := range mt.domains {
		want, doms = append(want, fmt.Sprintf("exec %d", dm.udi)), append(doms, dm)
	}
	for _, dm := range m.data {
		want, doms = append(want, fmt.Sprintf("data %d", dm.udi)), append(doms, dm)
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) || rep.PooledStacks != m.pooled || rep.PooledHeaps != m.pooledHeaps {
		d.failf("audit: domains %v, %d pooled stacks, %d with heaps; model: %v, %d, %d",
			got, rep.PooledStacks, rep.PooledHeaps, want, m.pooled, m.pooledHeaps)
	}
	as := d.l.Process().AddressSpace()
	for _, dm := range doms {
		for addr, b := range dm.allocs {
			have := make([]byte, len(b))
			if err := as.KernelRead(addr, have); err != nil || !bytes.Equal(have, b) {
				d.failf("domain %d: %d bytes at %#x read %x (%v), model: %x", dm.udi, len(b), uint64(addr), have, err, b)
			}
		}
	}
}

// keysAndMapped counts the allocated protection keys and the mapped bytes.
func keysAndMapped(as *mem.AddressSpace) (keys int, mapped int64) {
	for k := range mem.NumKeys {
		if as.KeyAllocated(k) {
			keys++
		}
	}
	return keys, as.Stats().MappedBytes.Load()
}

// checkAll adds the process-wide counts: rewinds, forensics reports,
// logged faults, mapped bytes and protection keys (key 0, root's and the
// monitor's besides the model's).
func (d *driver) checkAll() {
	m := d.mt.m
	as := d.l.Process().AddressSpace()
	keys, mapped := keysAndMapped(as)
	got := [...]int64{d.l.Stats().Rewinds.Load(), d.rec.Forensics().Added(), as.FaultSeq(), mapped - d.base, int64(keys)}
	if want := [...]int64{m.rewinds, m.rewinds, m.faults, m.mapped, int64(m.keys + 3)}; got != want {
		d.failf("rewinds, forensics reports, logged faults, mapped bytes, keys: %v, model: %v", got, want)
	}
}

// op runs one random step of the single-thread driver.
func (d *driver) op() {
	mt, l, th := d.mt, d.l, d.th
	udi, dd := UDI(1+d.rng.Intn(4)), UDI(7+d.rng.Intn(2))
	switch n := d.rng.Intn(20); {
	case n < 10:
		var grants map[UDI]mem.Prot
		if d.rng.Intn(2) == 0 {
			grants = map[UDI]mem.Prot{dd: []mem.Prot{mem.ProtRead, mem.ProtRW}[d.rng.Intn(2)]}
		}
		vector := vectors[d.rng.Intn(len(vectors))]
		d.step += " scope " + vector
		d.scope(udi, vector, grants)
	case n < 12:
		if d.rng.Intn(2) == 0 {
			udi = dd
		}
		merge, opt := d.rng.Intn(2) == 0, NoHeapMerge
		if merge {
			opt = HeapMerge
		}
		d.expect(fmt.Sprintf("Destroy(%d, merge %v)", udi, merge), l.Destroy(th, udi, opt), mt.destroy(udi, merge))
	case n < 13:
		_, want := mt.init(udi, false, true, nil)
		d.expect(fmt.Sprintf("InitDomain(%d)", udi), l.InitDomain(th, udi, Accessible()), want)
	case n < 14:
		_, want := mt.init(dd, true, false, nil)
		d.expect(fmt.Sprintf("InitDomain(%d, data)", dd), l.InitDomain(th, dd, AsData(), HeapSize(mDataHeap)), want)
	case n < 16:
		grantee := []UDI{RootUDI, udi}[d.rng.Intn(2)]
		prot := []mem.Prot{mem.ProtNone, mem.ProtRead, mem.ProtRW}[d.rng.Intn(3)]
		d.expect(fmt.Sprintf("DProtect(%d, %d, %v)", grantee, dd, prot), l.DProtect(th, grantee, dd, prot), mt.dprotect(grantee, dd, prot))
	case n < 18:
		if dom := mt.m.data[dd]; dom != nil {
			d.release(dd, dom)
		}
		_, _ = d.alloc(dd, 32+d.rng.Intn(224), false)
	case n < 19:
		if addr, err := d.alloc(RootUDI, 32+d.rng.Intn(224), false); err == nil {
			d.expect("Free(root)", l.Free(th, RootUDI, addr), mt.free(RootUDI, addr))
		}
	default:
		if d.rng.Intn(2) == 0 {
			udi = dd
		}
		d.expect(fmt.Sprintf("Deinit(%d)", udi), l.Deinit(th, udi), mt.deinit(udi))
	}
}

// mtOp runs one random step of a thread of the multithreaded driver.
func (d *driver) mtOp(shared UDI) {
	mt, l, th, c := d.mt, d.l, d.th, d.th.CPU()
	switch n := d.rng.Intn(8); {
	case n < 5:
		// A scope of the thread's domain 1, granted the shared domain: it
		// writes the thread's allocation there from inside — an effect a
		// later trap in the scope does not undo — and traps one time in four.
		dom, err := mt.open(1, true, nil)
		d.want = err
		got := l.Guard(th, 1, func() error {
			d.expect("DProtect(1, shared)", l.DProtect(th, 1, shared, mem.ProtRW), mt.dprotect(1, shared, mem.ProtRW))
			d.release(1, dom)
			if _, err := d.alloc(1, 32+d.rng.Intn(224), false); err != nil {
				d.want = err
				return err
			}
			mt.enter(dom)
			if err := l.Enter(th, 1); err != nil {
				d.failf("Enter(1): %v", err)
			}
			if len(d.mine) > 0 {
				b := d.pattern(8)
				c.Write(d.mine[0], b)
				mt.m.write(mt.m.data[shared], d.mine[0], b, false)
			}
			if d.rng.Intn(4) == 0 {
				d.want = d.abn(sig.SIGSEGV, mem.CodeMapErr)
				mt.trap(true)
				c.WriteU8(mem.Addr(1<<40), 1)
			}
			mt.exit()
			return l.Exit(th)
		}, Accessible())
		d.expect("Guard(1)", got, d.want)
	case n < 7:
		if len(d.mine) >= 4 {
			d.expect("Free(shared)", l.Free(th, shared, d.mine[0]), mt.free(shared, d.mine[0]))
			d.mine = d.mine[1:]
		}
		if addr, err := d.alloc(shared, 32+d.rng.Intn(224), false); err == nil {
			d.mine = append(d.mine, addr)
		}
	default:
		// What every thread's policy derives from changes only on a lone
		// thread: each of these is refused and changes nothing.
		switch d.rng.Intn(3) {
		case 0:
			_, want := mt.init(13, true, false, nil)
			d.expect("InitDomain(13, data)", l.InitDomain(th, 13, AsData(), HeapSize(mDataHeap)), want)
		case 1:
			d.expect("Destroy(shared)", l.Destroy(th, shared, NoHeapMerge), mt.destroy(shared, false))
		default:
			d.expect("DProtect(root, shared)", l.DProtect(th, RootUDI, shared, mem.ProtRW), mt.dprotect(RootUDI, shared, mem.ProtRW))
		}
	}
}

// TestRandomizedDomainLifecycles drives Table I's operations in random
// order on one thread — guard scopes that trap through every fault class,
// nested scopes, persistent domains, merges and discards, data domains
// destroyed and made again under their index, grants and allocation
// failures — and holds core to the model after every step. Scrub-on-
// discard is on, so the audit also proves every pooled region zeroed.
func TestRandomizedDomainLifecycles(t *testing.T) {
	p, l, rec := modelLib(t, 123, WithScrubOnDiscard(true))
	m := newModel(mStack, mHeap, mDataHeap, mRootHeap, true)
	var d *driver
	err := p.Attach("main", func(th *proc.Thread) error {
		d = &driver{l: l, rec: rec, th: th, mt: m.thread(), rng: rand.New(rand.NewSource(99)), step: "setup"}
		d.base = l.Process().AddressSpace().Stats().MappedBytes.Load()
		return caught(func() {
			d.anchor, _ = d.alloc(RootUDI, 64, false)
			for i := 0; i < 1000; i++ {
				d.check()
				d.checkAll()
				d.step = fmt.Sprintf("step %d", i)
				d.op()
			}
			t.Logf("%d rewinds (%d SIGSEGV), %d pooled stacks, %d bytes mapped", m.rewinds, m.faults, m.pooled, m.mapped)
		})
	})
	if err != nil || p.Killed() {
		t.Fatalf("%v (process killed: %v, at %s)", err, p.Killed(), d.step)
	}
}

// worker runs closures on one spawned thread, one at a time.
type worker struct {
	cmds chan func()
	errs chan error
	h    *proc.Handle
}

func spawn(p *proc.Process, name string) *worker {
	w := &worker{cmds: make(chan func()), errs: make(chan error)}
	w.h = p.Spawn(name, func(th *proc.Thread) error {
		for fn := range w.cmds {
			w.errs <- caught(func() { fn() })
		}
		return nil
	})
	return w
}

// TestRandomizedMultithreaded runs three threads' random steps at once —
// guard scopes of their own domain granted a shared data domain, traffic
// in that domain, and shared-topology changes the lone-thread rule refuses
// — and, between rounds, holds every thread to the model. Stack reuse is
// off, so the mapped bytes do not depend on which thread pooled a stack
// first.
func TestRandomizedMultithreaded(t *testing.T) {
	const shared = UDI(9)
	p, l, rec := modelLib(t, 321, WithStackReuse(false))
	m := newModel(mStack, mHeap, mDataHeap, mRootHeap, false)
	var ws []*worker
	var ds []*driver
	// do runs fn(i) on every worker given, at once, and fails on the first
	// disagreement.
	do := func(fn func(i int), on ...int) {
		t.Helper()
		for _, i := range on {
			ws[i].cmds <- func() { fn(i) }
		}
		for _, i := range on {
			if err := <-ws[i].errs; err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 3; i++ {
		ws = append(ws, spawn(p, fmt.Sprintf("w%d", i)))
		ds = append(ds, nil)
		do(func(i int) {
			ds[i] = &driver{l: l, rec: rec, th: ws[i].h.Thread(), mt: m.thread(), rng: rand.New(rand.NewSource(int64(i + 1))), step: "setup"}
		}, i)
		if i == 0 {
			do(func(int) {
				d := ds[0]
				d.base = l.Process().AddressSpace().Stats().MappedBytes.Load()
				_, want := d.mt.init(shared, true, true, nil)
				d.expect("InitDomain(shared)", l.InitDomain(d.th, shared, AsData(), Accessible(), HeapSize(mDataHeap)), want)
			}, 0)
		}
	}
	all := []int{0, 1, 2}
	for r := 0; r < 100; r++ {
		do(func(i int) {
			ds[i].step = fmt.Sprintf("round %d thread %d", r, i)
			ds[i].mtOp(shared)
		}, all...)
		for _, i := range all {
			do(func(i int) { ds[i].check() }, i)
		}
		do(func(int) { ds[0].checkAll() }, 0)
	}
	t.Logf("%d rewinds, %d bytes mapped", m.rewinds, m.mapped)
	for i, w := range ws {
		close(w.cmds)
		if err := w.h.Join(); err != nil {
			t.Fatal(err)
		}
		ds[i].mt.end()
	}
	if mapped := l.Process().AddressSpace().Stats().MappedBytes.Load() - ds[0].base; mapped != m.mapped {
		t.Errorf("after the threads exit: %d bytes mapped, model: %d", mapped, m.mapped)
	}
	if p.Killed() {
		t.Fatalf("process died: %v", p.ExitError())
	}
}
