package core

import (
	"errors"
	"fmt"

	"sdrad/internal/mem"
	"sdrad/internal/proc"
	"sdrad/internal/stack"
	"sdrad/internal/tlsf"
)

// Malloc allocates size bytes in domain udi (Table I ②). Allowed targets
// are the current domain itself, accessible child domains of the current
// domain, and data domains the current domain can write (its own
// accessible children or domains granted via DProtect) — "note that this
// is only allowed for child domains of the current domain that are
// accessible; for inaccessible domains, a shared data domain needs to be
// used to exchange data" (§IV-A).
func (l *Library) Malloc(t *proc.Thread, udi UDI, size uint64) (mem.Addr, error) {
	ts := l.state(t)
	l.monitorEnter(t)
	defer l.monitorExit(t)

	d, err := l.resolveAllocTarget(ts, udi)
	if err != nil {
		return 0, err
	}
	if hook := l.allocFault; hook != nil {
		if err := hook(udi, size); err != nil {
			return 0, fmt.Errorf("%w: domain %d: %v", ErrHeapExhausted, udi, err)
		}
	}
	c := t.CPU()
	// The monitor raises the target key for the duration of the
	// allocator operation.
	l.wrpkru(t, mem.PKRUAllow(c.PKRU(), d.key, true))
	// The heap lock also covers the lazy TLSF build: a shared data domain's
	// first allocations can arrive from two threads at once. Unlock via
	// defer: an allocator walking corrupted metadata can trap mid-operation,
	// and the heap lock must not survive the panic unwind.
	d.lockHeap()
	defer d.unlockHeap()
	if d.isRoot() {
		if err := l.ensureRootHeap(c, size); err != nil {
			return 0, err
		}
	} else if err := d.ensureHeap(c); err != nil {
		return 0, err
	}
	p, err := d.heap.Alloc(c, size)
	if errors.Is(err, tlsf.ErrOOM) && d.isRoot() && l.growRootHeap(c, size) == nil {
		p, err = d.heap.Alloc(c, size)
	}
	if err != nil {
		if errors.Is(err, tlsf.ErrOOM) {
			return 0, fmt.Errorf("%w: domain %d: %v", ErrHeapExhausted, udi, err)
		}
		return 0, err
	}
	return p, nil
}

// SetAllocFault installs (or, with nil, removes) an allocation-fault hook
// consulted by Malloc before the allocator runs: a non-nil error makes the
// call fail as heap exhaustion. The chaos engine uses it to inject OOM
// under live workload load; install and remove it from the serving thread
// (or while no thread is calling Malloc), as the field is unsynchronized.
func (l *Library) SetAllocFault(fn func(udi UDI, size uint64) error) { l.allocFault = fn }

// Free releases memory previously allocated in domain udi (Table I ③).
func (l *Library) Free(t *proc.Thread, udi UDI, addr mem.Addr) error {
	ts := l.state(t)
	l.monitorEnter(t)
	defer l.monitorExit(t)

	d, err := l.resolveAllocTarget(ts, udi)
	if err != nil {
		return err
	}
	c := t.CPU()
	d.lockHeap()
	defer d.unlockHeap()
	if d.heap == nil {
		return fmt.Errorf("sdrad: free in domain %d with uninitialized heap", udi)
	}
	l.wrpkru(t, mem.PKRUAllow(c.PKRU(), d.key, true))
	return d.heap.Free(c, addr)
}

// resolveAllocTarget finds the domain udi and checks the access policy
// for memory-management calls issued by the current domain.
func (l *Library) resolveAllocTarget(ts *threadState, udi UDI) (*Domain, error) {
	cur := ts.current
	if udi == cur.udi {
		return cur, nil
	}
	// Accessible execution child of the current domain.
	if d, ok := ts.lookup(udi); ok {
		if d.parent == cur && d.accessible {
			return d, nil
		}
		return nil, ErrNotChild
	}
	// Data domains: the creating parent (if accessible) or any domain
	// holding a write grant may manage memory in them.
	if dd := l.lookupDataDomain(udi); dd != nil {
		if dd.parent == cur && dd.accessible {
			return dd, nil
		}
		l.mu.Lock()
		prot, ok := cur.grants[dd]
		l.mu.Unlock()
		if ok && prot&mem.ProtWrite != 0 {
			return dd, nil
		}
		return nil, ErrNotChild
	}
	return nil, ErrUnknownDomain
}

// ensureRootHeap lazily maps the root heap's first region, big enough for
// an allocation of size bytes, and builds its allocator there. The caller
// holds root's heap lock and has the root key raised.
func (l *Library) ensureRootHeap(c *mem.CPU, size uint64) error {
	if l.root.heap != nil {
		return nil
	}
	return l.growRootHeap(c, size)
}

// growRootHeap maps one more root-heap region, big enough for an
// allocation of size bytes (HeapStep unless size needs more), and hands
// it to the root allocator; the first region also carries the allocator's
// control block. It fails once the regions would pass rootHeapSize, the
// ceiling. The caller holds root's heap lock and has the root key raised;
// mu nests inside the heap lock, as in every path that takes both.
func (l *Library) growRootHeap(c *mem.CPU, size uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	need := tlsf.RegionFor(size)
	var mapped uint64
	for _, r := range l.rootRegions {
		mapped += r.Size
	}
	if len(l.rootRegions) == 0 {
		need += tlsf.Overhead()
	}
	n := GrowBy(need, mapped, l.rootHeapSize)
	if n == 0 {
		return fmt.Errorf("%w: root heap has %d of its %d bytes mapped, %d more needed",
			ErrHeapExhausted, mapped, l.rootHeapSize, need)
	}
	base, err := l.p.AddressSpace().MapAnon(int(n), mem.ProtRW, l.rootKey)
	if err != nil {
		return fmt.Errorf("sdrad: mapping root heap: %w", err)
	}
	l.rootRegions = append(l.rootRegions, tlsf.Region{Base: base, Size: n})
	if l.root.heap == nil {
		l.root.heap, err = tlsf.Init(c, base, n)
		return err
	}
	return l.root.heap.AddRegion(c, base, n)
}

// DProtect configures domain udi's access rights PROT on the target data
// domain tddi (Table I ④). udi must be the current domain or one of its
// children; tddi must be a data domain. Rights take effect the next time
// the domain's policy is installed (immediately if udi is current). The
// rights hold for this instance of tddi: a data domain created later
// under the same index is not granted by them. The root domain is every
// thread's, so its rights change only on the library's lone live thread
// (ErrSharedTopology otherwise).
func (l *Library) DProtect(t *proc.Thread, udi, tddi UDI, prot mem.Prot) error {
	ts := l.state(t)
	l.monitorEnter(t)
	defer l.monitorExit(t)

	var d *Domain
	switch {
	case udi == ts.current.udi:
		d = ts.current
	default:
		child, ok := ts.domains[udi]
		if !ok || child.parent != ts.current {
			return ErrNotChild
		}
		d = child
	}
	dd := l.lookupDataDomain(tddi)
	if dd == nil {
		return fmt.Errorf("%w: data domain %d", ErrUnknownDomain, tddi)
	}
	// Grants of the shared root domain are read concurrently by other
	// threads' policy derivations.
	l.mu.Lock()
	defer l.mu.Unlock()
	if d.isRoot() {
		if err := l.loneLocked(); err != nil {
			return err
		}
	}
	if d.grants == nil {
		d.grants = make(map[*Domain]mem.Prot)
	}
	if prot == mem.ProtNone {
		delete(d.grants, dd)
	} else {
		d.grants[dd] = prot
	}
	l.policyGen.Add(1)
	return nil
}

// Enter switches execution into nested domain udi (Table I ⑤): the
// monitor saves the current domain, switches to the nested domain's
// stack (pushing a canary-protected return record, the analog of pushing
// the sdrad_enter return address on the new stack), and installs the
// nested domain's memory-access policy.
func (l *Library) Enter(t *proc.Thread, udi UDI) error {
	ts := l.state(t)
	// Telemetry costs one atomic load when disabled; when enabled,
	// latency is clocked only on the sampled transitions (keyed off the
	// thread's own transition counter, so no extra hot-path write either).
	// The key is the Enter/Exit pair index (count>>1), not the raw count:
	// a thread sees even counts in Enter and odd counts in Exit, and a
	// power-of-two mask over the raw count would never sample an Exit.
	switches := &ts.hot.n[hotSwitches]
	rec := l.tel.Load()
	var telT0 int64
	sampled := false
	if rec != nil {
		if sampled = rec.Sampled(uint64(switches.Load()) >> 1); sampled {
			telT0 = rec.Clock()
		}
	}
	l.monitorEnter(t)
	defer l.monitorExit(t)

	d, ok := ts.lookup(udi)
	if !ok {
		return ErrUnknownDomain
	}
	if d.kind != ExecDomain {
		return ErrBadDomainKind
	}
	if d.isRoot() {
		return ErrRootOperation
	}
	if d.parent != ts.current {
		return ErrNotChild
	}
	if !d.contextValid {
		return ErrNoContext
	}
	if d.entered {
		return ErrDomainBusy
	}
	c := t.CPU()
	// Push the return record on the nested domain's stack; requires its
	// key raised.
	l.wrpkru(t, mem.PKRUAllow(c.PKRU(), d.key, true))
	er := enterRecord{prev: ts.current, entered: d}
	if err := d.stk.PushFrameInto(c, &er.frame, 0); err != nil {
		return fmt.Errorf("sdrad: entering domain %d: %w", udi, err)
	}
	ts.enterStack = append(ts.enterStack, er)
	d.entered = true
	ts.current = d
	// No lease invalidation: the switch only rewrote PKRU, and lease
	// validity re-derives rights from the live PKRU on every access, so
	// windows the new domain lacks rights for go invalid by themselves.
	switches.Add(1)
	if sampled {
		rec.RecordEnter(t.ID(), int(udi), rec.Clock()-telT0)
	}
	return nil
}

// Exit leaves the current nested domain back to its parent (Table I ⑥).
// The return record pushed by Enter is popped with its canary verified: a
// domain that smashed its own stack deep enough to clobber the record is
// detected here, mirroring __stack_chk_fail firing on return.
func (l *Library) Exit(t *proc.Thread) error {
	ts := l.state(t)
	switches := &ts.hot.n[hotSwitches]
	tel := l.tel.Load()
	var telT0 int64
	sampled := false
	if tel != nil {
		// Same pair index as the Enter that preceded it.
		if sampled = tel.Sampled(uint64(switches.Load()) >> 1); sampled {
			telT0 = tel.Clock()
		}
	}
	l.monitorEnter(t)
	defer l.monitorExit(t)

	if len(ts.enterStack) == 0 || ts.current.isRoot() {
		return ErrNotEntered
	}
	rec := &ts.enterStack[len(ts.enterStack)-1]
	if rec.entered != ts.current {
		return ErrNotEntered
	}
	d := ts.current
	// Verify the return record's canary before restoring the parent: a
	// clobbered record means the domain smashed its stack, and the panic
	// below is recovered by the Guard as an abnormal exit attributed to
	// the still-current domain.
	rec.frame.MustVerify(t.CPU())
	ts.leave(d)
	switches.Add(1)
	if sampled {
		tel.RecordExit(t.ID(), int(d.udi), tel.Clock()-telT0)
	}
	return nil
}

// Copy moves n bytes between addresses using the current domain's rights
// and counts the bytes against the copy statistics — the explicit
// argument/result marshalling the paper identifies as SDRaD's main data
// cost.
func (l *Library) Copy(t *proc.Thread, dst, src mem.Addr, n int) {
	t.CPU().Copy(dst, src, n)
	l.state(t).hot.n[hotCopied].Add(int64(n))
}

// WriteBytes copies p into domain memory at addr under current rights.
func (l *Library) WriteBytes(t *proc.Thread, addr mem.Addr, p []byte) {
	t.CPU().Write(addr, p)
	l.state(t).hot.n[hotCopied].Add(int64(len(p)))
}

// ReadBytes copies n bytes at addr out of domain memory under current
// rights.
func (l *Library) ReadBytes(t *proc.Thread, addr mem.Addr, n int) []byte {
	b := t.CPU().ReadBytes(addr, n)
	l.state(t).hot.n[hotCopied].Add(int64(n))
	return b
}

// Stack returns the simulated stack of execution domain udi on this
// thread, so code running inside the domain can push canary-protected
// frames for its stack-allocated buffers (the simulation's equivalent of
// running with -fstack-protector on the domain stack). The root domain
// has no simulated stack.
func (l *Library) Stack(t *proc.Thread, udi UDI) (*stack.Stack, error) {
	ts := l.state(t)
	d, ok := ts.lookup(udi)
	if !ok {
		return nil, ErrUnknownDomain
	}
	if d.kind != ExecDomain || d.isRoot() {
		return nil, ErrBadDomainKind
	}
	return d.stk, nil
}
