package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"sdrad/internal/cacheline"
	"sdrad/internal/mem"
	"sdrad/internal/proc"
	"sdrad/internal/sig"
	"sdrad/internal/stack"
	"sdrad/internal/tlsf"
)

// Kind distinguishes execution domains (stack + heap, may run code) from
// data domains (shareable heap pages, cannot execute).
type Kind int

// Domain kinds.
const (
	ExecDomain Kind = iota + 1
	DataDomain
)

func (k Kind) String() string {
	switch k {
	case ExecDomain:
		return "exec"
	case DataDomain:
		return "data"
	default:
		return "unknown"
	}
}

// Domain is one isolated domain: a protection key, a disjoint stack
// (execution domains), and a disjoint TLSF subheap. An execution domain
// is written by its thread in every guard scope (contextValid, scopeID,
// entered), so the record is padded at both ends: it shares no line with
// another thread's domain.
type Domain struct {
	_    cacheline.Pad
	udi  UDI
	kind Kind
	key  int
	lib  *Library

	parent *Domain

	// Init-time configuration.
	accessible           bool
	handlerAtGrandparent bool
	stackSize            uint64
	heapSize             uint64

	// Stack (execution domains only).
	stk       *stack.Stack
	stackBase mem.Addr

	// Heap: region mapped at init, TLSF control built lazily on the
	// first allocation ("Upon first call to memory management within a
	// domain, its heap is initialized", §IV-C). heapKeep is set by
	// discardHeap when the region stays mapped for pooling (exec
	// domains with stack reuse): releaseDomain then parks it with the
	// pooled stack instead of losing it.
	heapBase mem.Addr
	heap     *tlsf.Heap
	heapKeep bool

	// Recovery context (execution domains): valid while a Guard scope is
	// active for this domain on its owning thread.
	contextValid bool
	scopeID      uint64
	savedMask    sig.Mask

	initialized bool
	entered     bool
	ownerTID    int // thread that initialized an exec domain

	// pkruCache holds the last derived PKRU policy for executing this
	// domain, packed as generation<<32|policy (see Library.computePKRU).
	// Root's policy differs per thread and is cached in threadState.
	pkruCache atomic.Uint64

	// grants are the data-domain access rights set at init (Grant) or
	// later via DProtect, keyed by the data domain instance they were
	// given for: a destroyed instance is never initialized again, so its
	// grants die with it even when its index is reused.
	grants map[*Domain]mem.Prot

	// heapMu serializes heap operations for shared domains (the root
	// domain and data domains are reachable from several threads; nested
	// execution-domain heaps are single-threaded by construction).
	heapMu sync.Mutex
	_      cacheline.Pad
}

// lockHeap/unlockHeap serialize allocator operations on shared domains.
func (d *Domain) lockHeap()   { d.heapMu.Lock() }
func (d *Domain) unlockHeap() { d.heapMu.Unlock() }

// UDI returns the domain's index.
func (d *Domain) UDI() UDI { return d.udi }

// Kind returns the domain kind.
func (d *Domain) Kind() Kind { return d.kind }

// Key returns the domain's protection key.
func (d *Domain) Key() int { return d.key }

// Accessible reports whether the parent may access this domain's memory.
func (d *Domain) Accessible() bool { return d.accessible }

func (d *Domain) isRoot() bool { return d.udi == RootUDI }

// InitOption configures domain initialization (the C API's option flags).
type InitOption func(*initCfg)

type initCfg struct {
	data                 bool
	accessible           bool
	handlerAtGrandparent bool
	stackSize            uint64
	heapSize             uint64
	grants               map[UDI]mem.Prot
}

// AsData creates a data domain: shareable pages that hold data only.
func AsData() InitOption { return func(c *initCfg) { c.data = true } }

// Accessible makes the new domain's memory accessible to its parent
// (otherwise data must cross through a shared data domain, as with the
// paper's OpenSSL wrapper).
func Accessible() InitOption { return func(c *initCfg) { c.accessible = true } }

// HandlerAtGrandparent directs abnormal exits of this domain to the
// recovery point of its parent's initialization (Figure 2: the deeply
// nested persistent domain rewinds to the root-level recovery point).
func HandlerAtGrandparent() InitOption {
	return func(c *initCfg) { c.handlerAtGrandparent = true }
}

// StackSize overrides the default stack size for this domain.
func StackSize(n uint64) InitOption { return func(c *initCfg) { c.stackSize = n } }

// HeapSize overrides the default heap size for this domain.
func HeapSize(n uint64) InitOption { return func(c *initCfg) { c.heapSize = n } }

// Grant gives the new domain rights prot on the existing data domain
// tddi — the value DProtect sets, set where the domain is made. A Guard
// that re-creates the domain after a rewind with the same options
// re-applies it.
func Grant(tddi UDI, prot mem.Prot) InitOption {
	return func(c *initCfg) {
		if c.grants == nil {
			c.grants = make(map[UDI]mem.Prot)
		}
		c.grants[tddi] = prot
	}
}

// DestroyOption selects what happens to the domain heap on Destroy.
type DestroyOption int

// Destroy options (Table I: sdrad_destroy's options argument).
const (
	// NoHeapMerge discards the domain's heap memory.
	NoHeapMerge DestroyOption = iota
	// HeapMerge merges the domain's subheap into the parent's heap: live
	// allocations survive and become the parent's (only valid for
	// domains accessible to their parent).
	HeapMerge
)

// InitDomain creates and initializes a domain (Table I ①, creation half).
// For execution domains the recovery context is established by the Guard
// scope; InitDomain alone leaves the domain without a valid context.
//
// The paper's semantics enforced here:
//   - an execution domain index is per thread and initializes once
//     (re-initialization requires Deinit or Destroy first);
//   - data domains are process-global and shareable across threads, so
//     one is created only on the library's lone live thread
//     (ErrSharedTopology otherwise; a refused call changes nothing);
//   - the new domain's parent is the domain current at creation time;
//   - handler-at-grandparent requires a non-root parent;
//   - every data domain named by Grant must exist.
func (l *Library) InitDomain(t *proc.Thread, udi UDI, opts ...InitOption) error {
	cfg := initCfg{
		stackSize: l.defaultStackSize,
		heapSize:  l.defaultHeapSize,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if udi == RootUDI {
		return ErrRootOperation
	}
	// Resilience-policy admission: a nested execution domain that was
	// quarantined (or is in a backoff hold-off) after repeated rewinds
	// may not be re-created until the policy readmits it. Data domains
	// are exempt — they never fault on their own and hold shared state
	// the degraded paths still need.
	if !cfg.data {
		if err := l.admit(udi); err != nil {
			return err
		}
	}
	ts := l.state(t)
	l.monitorEnter(t)
	defer l.monitorExit(t)

	if _, ok := ts.domains[udi]; ok {
		return ErrAlreadyInit
	}
	if dd := l.lookupDataDomain(udi); dd != nil {
		return fmt.Errorf("%w: %d is a data domain", ErrUDIInUse, udi)
	}
	if cfg.handlerAtGrandparent && ts.current.isRoot() {
		return ErrNoGrandparent
	}
	var grants map[*Domain]mem.Prot
	for tddi, prot := range cfg.grants {
		dd := l.lookupDataDomain(tddi)
		if dd == nil {
			return fmt.Errorf("%w: data domain %d", ErrUnknownDomain, tddi)
		}
		if grants == nil {
			grants = make(map[*Domain]mem.Prot, len(cfg.grants))
		}
		grants[dd] = prot
	}

	d := &Domain{
		udi:                  udi,
		lib:                  l,
		parent:               ts.current,
		accessible:           cfg.accessible,
		handlerAtGrandparent: cfg.handlerAtGrandparent,
		stackSize:            cfg.stackSize,
		heapSize:             cfg.heapSize,
		ownerTID:             t.ID(),
	}
	if cfg.data {
		d.kind = DataDomain
	} else {
		d.kind = ExecDomain
	}

	if err := l.provisionDomain(t, d); err != nil {
		return err
	}
	// Publication is synchronized: a data domain is global, and other
	// threads read its table entry while deriving their policies.
	l.mu.Lock()
	if d.kind == DataDomain {
		if err := l.loneLocked(); err != nil {
			l.mu.Unlock()
			as := l.p.AddressSpace()
			_ = as.Unmap(d.heapBase, int(d.heapSize))
			_ = as.PkeyFree(d.key)
			return err
		}
	}
	d.initialized = true
	d.grants = grants
	if d.kind == DataDomain {
		l.dataDomains[udi] = d
	} else {
		ts.domains[udi] = d
	}
	l.policyGen.Add(1)
	l.mu.Unlock()
	l.stats.Inits.Add(1)
	if rec := l.tel.Load(); rec != nil {
		rec.RecordDomainInit(t.ID(), int(udi), int(d.kind), d.heapSize)
	}
	return nil
}

// provisionDomain allocates the protection key, stack, and heap region.
func (l *Library) provisionDomain(t *proc.Thread, d *Domain) error {
	as := l.p.AddressSpace()

	// Stack first: a pooled stack brings its key along (§IV-C stack
	// reuse keeps both the mapping and its key), and — when the pooled
	// entry carries a discarded heap region large enough — the heap
	// mapping too, so post-rewind re-initialization skips PkeyAlloc and
	// both MapAnon calls (the TLSF control rebuilds lazily on first
	// Malloc).
	if d.kind == ExecDomain {
		if ps := l.takePooledStack(d.stackSize, d.heapSize); ps != nil {
			d.stk = ps.stk
			d.stackBase = ps.stk.Base()
			d.key = ps.key
			if ps.heapBase != 0 && ps.heapSize >= d.heapSize {
				d.heapBase = ps.heapBase
				d.heapSize = ps.heapSize
				return nil
			}
			if ps.heapBase != 0 {
				// Pooled heap too small for this domain: release the
				// region rather than orphaning it.
				_ = as.Unmap(ps.heapBase, int(ps.heapSize))
			}
		} else {
			key, err := as.PkeyAlloc()
			if err != nil {
				return fmt.Errorf("%w: %v", ErrTooManyDomains, err)
			}
			d.key = key
			base, err := as.MapAnon(int(d.stackSize), mem.ProtRW, d.key)
			if err != nil {
				return fmt.Errorf("sdrad: mapping stack: %w", err)
			}
			d.stackBase = base
			d.stk = stack.New(base, d.stackSize, l.p.Rand64())
		}
	} else {
		key, err := as.PkeyAlloc()
		if err != nil {
			return fmt.Errorf("%w: %v", ErrTooManyDomains, err)
		}
		d.key = key
	}

	base, err := as.MapAnon(int(d.heapSize), mem.ProtRW, d.key)
	if err != nil {
		return fmt.Errorf("sdrad: mapping heap: %w", err)
	}
	d.heapBase = base
	return nil
}

// ensureHeap lazily builds the TLSF control structure inside the domain's
// heap region. The monitor must have access to the domain key when this
// runs (callers raise it).
func (d *Domain) ensureHeap(c *mem.CPU) error {
	if d.heap != nil {
		return nil
	}
	h, err := tlsf.Init(c, d.heapBase, d.heapSize)
	if err != nil {
		return fmt.Errorf("sdrad: initializing domain heap: %w", err)
	}
	d.heap = h
	return nil
}

// Deinit discards the recovery context of a child domain but leaves its
// memory intact (Table I ⑧): the domain can be re-guarded later. In the
// Go adaptation, Guard invalidates the context automatically when it
// returns, so Deinit mainly exists for API fidelity and for invalidating
// a context explicitly mid-guard.
func (l *Library) Deinit(t *proc.Thread, udi UDI) error {
	ts := l.state(t)
	l.monitorEnter(t)
	defer l.monitorExit(t)
	d, ok := ts.domains[udi]
	if !ok {
		return ErrUnknownDomain
	}
	if d.isRoot() {
		return ErrRootOperation
	}
	if d.kind != ExecDomain {
		return ErrBadDomainKind
	}
	d.contextValid = false
	return nil
}

// Destroy deletes a child domain (Table I ⑦). Neither the domain nor any
// domain created inside it may be entered (ErrDomainBusy otherwise; a
// refused call changes nothing). With HeapMerge the domain's subheap —
// which must be accessible to the parent — is merged into the parent
// domain's heap and its pages are retagged with the parent's key;
// otherwise the heap memory is discarded; a merge the parent refuses
// discards it too, and Destroy returns the refusal. The execution domains
// created inside it on this thread go with it, discarded, never merged:
// nothing could guard or re-create them under a dead parent. Stacks are
// pooled for reuse. A data domain is destroyed only on the library's lone
// live thread (ErrSharedTopology otherwise; a refused call changes
// nothing).
func (l *Library) Destroy(t *proc.Thread, udi UDI, opt DestroyOption) error {
	ts := l.state(t)
	l.monitorEnter(t)
	defer l.monitorExit(t)

	d := ts.domains[udi]
	if d == nil {
		// Data domains are global.
		d = l.lookupDataDomain(udi)
	}
	if d == nil {
		return ErrUnknownDomain
	}
	if d.isRoot() {
		return ErrRootOperation
	}
	inside := ts.descendants(d)
	if d.entered || slices.ContainsFunc(inside, func(c *Domain) bool { return c.entered }) {
		return ErrDomainBusy
	}

	if opt == HeapMerge && (!d.accessible || d.parent == nil) {
		return ErrNotChild
	}
	// Unpublish before the heap goes: a thread starting now derives its
	// policy without the domain, never with a key about to be freed.
	if err := l.unpublish(ts, d); err != nil {
		return err
	}
	l.discardDomain(t, inside...)
	var err error
	if opt == HeapMerge {
		if err = l.mergeHeapIntoParent(t, d); err != nil {
			// The parent adopted nothing, and the domain is gone: its
			// heap goes with it, whatever key its pages now carry.
			_ = l.p.AddressSpace().Unmap(d.heapBase, int(d.heapSize))
		} else if rec := l.tel.Load(); rec != nil {
			rec.RecordHeapMerge(t.ID(), int(udi), d.heapSize)
		}
	} else {
		l.discardHeap(t, d)
	}
	l.releaseDomain(t, d)
	l.stats.Destroys.Add(1)
	return err
}

// mergeHeapIntoParent retags the child's heap pages with the parent's key
// and adopts the subheap into the parent's TLSF instance.
func (l *Library) mergeHeapIntoParent(t *proc.Thread, d *Domain) error {
	parent := d.parent
	as := l.p.AddressSpace()
	c := t.CPU()
	// The monitor needs both keys while restitching.
	raised := mem.PKRUAllow(c.PKRU(), d.key, true)
	raised = mem.PKRUAllow(raised, parent.key, true)
	l.wrpkru(t, raised)
	// The parent heap may be shared (root, data domains): serialize the
	// adoption, and the heap's first build, against concurrent allocator
	// traffic.
	parent.lockHeap()
	defer parent.unlockHeap()
	if parent.isRoot() {
		if err := l.ensureRootHeap(c, 0); err != nil {
			return err
		}
	} else if err := parent.ensureHeap(c); err != nil {
		return err
	}
	if d.heap == nil {
		// Heap never used: hand the whole region to the parent as a pool.
		if err := as.PkeyMprotect(d.heapBase, int(d.heapSize), mem.ProtRW, parent.key); err != nil {
			return err
		}
		return parent.heap.AddRegion(c, d.heapBase, d.heapSize)
	}
	if err := as.PkeyMprotect(d.heapBase, int(d.heapSize), mem.ProtRW, parent.key); err != nil {
		return err
	}
	return parent.heap.Merge(c, d.heap)
}

// discardHeap scrubs (when configured) and releases a domain's heap
// region. For execution domains with stack reuse enabled the region is
// kept mapped with its key and rides along with the pooled stack
// (releaseDomain parks it): the discard semantics are identical — the
// contents are dead, scrubbed under the same policy as unmapped heaps —
// but the next domain init on this thread skips PkeyAlloc + MapAnon +
// a fresh TLSF region build.
func (l *Library) discardHeap(t *proc.Thread, d *Domain) {
	as := l.p.AddressSpace()
	if l.scrubOnDiscard {
		zero := make([]byte, mem.PageSize)
		for off := uint64(0); off < d.heapSize; off += mem.PageSize {
			_ = as.KernelWrite(d.heapBase+mem.Addr(off), zero)
		}
	}
	if d.kind == ExecDomain && l.reuseStacks && d.stk != nil {
		d.heapKeep = true
	} else {
		_ = as.Unmap(d.heapBase, int(d.heapSize))
	}
	d.heap = nil
	if rec := l.tel.Load(); rec != nil {
		rec.RecordDiscard(t.ID(), int(d.udi), d.heapSize)
	}
}

// unpublish removes the domain from the tables every policy derivation
// reads. A data domain is in every thread's, so it is refused unless the
// caller is the lone live thread (loneLocked); an execution domain is
// only in its own thread's and never is.
func (l *Library) unpublish(ts *threadState, d *Domain) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if d.kind == DataDomain {
		if err := l.loneLocked(); err != nil {
			return err
		}
		delete(l.dataDomains, d.udi)
	} else {
		ts.forget(d)
	}
	d.initialized = false
	d.contextValid = false
	l.policyGen.Add(1)
	return nil
}

// releaseDomain recycles or releases an unpublished domain's stack and
// key.
func (l *Library) releaseDomain(t *proc.Thread, d *Domain) {
	ts := l.state(t)
	as := l.p.AddressSpace()
	if d.kind == DataDomain {
		_ = as.PkeyFree(d.key)
	} else {
		if l.scrubOnDiscard && d.stk != nil {
			zero := make([]byte, mem.PageSize)
			for off := uint64(0); off < d.stackSize; off += mem.PageSize {
				_ = as.KernelWrite(d.stackBase+mem.Addr(off), zero)
			}
		}
		if d.stk != nil {
			ps := &pooledStack{stk: d.stk, key: d.key, size: d.stackSize}
			if d.heapKeep {
				ps.heapBase, ps.heapSize = d.heapBase, d.heapSize
			}
			if !l.returnPooledStack(ps) {
				_ = as.Unmap(d.stackBase, int(d.stackSize))
				if d.heapKeep {
					_ = as.Unmap(d.heapBase, int(d.heapSize))
				}
				_ = as.PkeyFree(d.key)
			}
		}
	}
	// Parent policy may have referenced this child's key.
	ts.refreshPKRU(t, l)
}

// refreshPKRU re-derives and installs the PKRU policy for the thread's
// current domain, keeping the monitor key raised if it currently is.
func (ts *threadState) refreshPKRU(t *proc.Thread, l *Library) {
	pkru := l.computePKRU(ts, ts.current)
	if ad, _ := mem.PKRURights(t.CPU().PKRU(), l.monitorKey); !ad {
		pkru = mem.PKRUAllow(pkru, l.monitorKey, true)
	}
	l.wrpkru(t, pkru)
}

// discardDomain implements the abnormal-exit discard of execution
// domains: each one's heap is thrown away unconditionally (never merged
// — "subheaps are never merged back after abnormal exits, as the data
// must be considered corrupted"), its stack is reset and pooled, and it
// is deleted.
func (l *Library) discardDomain(t *proc.Thread, doms ...*Domain) {
	ts := l.state(t)
	for _, d := range doms {
		_ = l.unpublish(ts, d) // an execution domain: never refused
		l.discardHeap(t, d)
		l.releaseDomain(t, d)
		l.stats.Destroys.Add(1)
	}
}

// descendants returns the execution domains of the thread created,
// directly or not, inside d, in UDI order: the domains that go when d
// goes. (Data domains are the process's and stay.)
func (ts *threadState) descendants(d *Domain) []*Domain {
	var inside []*Domain
	for _, c := range ts.domains {
		for p := c.parent; p != nil; p = p.parent {
			if p == d {
				inside = append(inside, c)
				break
			}
		}
	}
	slices.SortFunc(inside, func(a, b *Domain) int { return cmp.Compare(a.udi, b.udi) })
	return inside
}
