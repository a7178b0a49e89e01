package core

import (
	"slices"
	"sync"

	"sdrad/internal/mem"
)

// model is a reference semantics of the Library: the oracle the
// randomized drivers in property_test.go hold the monitor to after every
// step (GUARANTEES.md, "The kernel theorem"). It keeps what the paper
// promises and nothing of how core keeps it: which domains live on which
// thread and who their parents are, which data-domain instance a grant
// reaches, which bytes every live allocation holds, how many rewinds and
// faults there have been, and the mapped bytes and protection keys the
// domains and the stack pool hold. It knows no address: core returns an
// allocation's address and the model adopts it.
//
// Methods that change shared state lock mu, so threads stepping at once
// may share one model; a thread's own tables are its own, and a driver
// reads the fields only while no thread steps.
type model struct {
	mu      sync.Mutex
	root    *mDomain
	data    map[UDI]*mDomain
	threads int
	// reuse is WithStackReuse: a destroyed or discarded execution domain
	// leaves its stack (and, unless merged, its heap) mapped in the pool,
	// with its key, for the next domain made.
	reuse               bool
	pooled, pooledHeaps int
	keys                int   // protection keys held by domains and the pool
	mapped              int64 // bytes mapped since the driver's baseline
	rewinds, faults     int64 // faults counts the SIGSEGV rewinds
	rootMapped          bool
	// The region sizes the driver set up the library with.
	stack, heap, dataHeap, rootHeap int64
}

// domainKeys is how many protection keys domains can take: key 0, the
// root key and the monitor key are the process's.
const domainKeys = mem.NumKeys - 3

type mDomain struct {
	udi        UDI
	data       bool
	parent     *mDomain
	accessible bool
	allocs     map[mem.Addr][]byte
	grants     map[*mDomain]mem.Prot // by instance, not by index
}

// mThread is one thread's view: its execution domains (root is shared
// and not among them), the domain it executes in and its Enter nesting.
type mThread struct {
	m       *model
	domains map[UDI]*mDomain
	current *mDomain
	entered []*mDomain
}

// lock locks the model and returns its unlock.
func (m *model) lock() func() {
	m.mu.Lock()
	return m.mu.Unlock
}

func newModel(stack, heap, dataHeap, rootHeap int64, reuse bool) *model {
	return &model{
		root:  &mDomain{allocs: map[mem.Addr][]byte{}, grants: map[*mDomain]mem.Prot{}},
		data:  map[UDI]*mDomain{},
		reuse: reuse, stack: stack, heap: heap, dataHeap: dataHeap, rootHeap: rootHeap,
	}
}

// thread registers a new live thread, executing in root.
func (m *model) thread() *mThread {
	defer m.lock()()
	m.threads++
	return &mThread{m: m, domains: map[UDI]*mDomain{}, current: m.root}
}

// end is the thread destructor: its execution domains go as a discard.
func (th *mThread) end() {
	m := th.m
	defer m.lock()()
	for _, d := range th.domains {
		m.release(d, false)
	}
	th.domains = nil
	m.threads--
}

// provision charges a new domain's key and regions: an execution domain
// takes a pooled stack first, one that brings its heap along first of all.
func (m *model) provision(data bool) error {
	switch {
	case !data && m.pooledHeaps > 0:
		m.pooled--
		m.pooledHeaps--
	case !data && m.pooled > 0:
		m.pooled--
		m.mapped += m.heap
	case m.keys == domainKeys:
		return ErrTooManyDomains
	case data:
		m.keys++
		m.mapped += m.dataHeap
	default:
		m.keys++
		m.mapped += m.stack + m.heap
	}
	return nil
}

// release returns a destroyed domain's key and regions. A merged heap
// stays mapped: its pages are the parent's now.
func (m *model) release(d *mDomain, merged bool) {
	switch {
	case d.data:
		m.keys--
		if !merged {
			m.mapped -= m.dataHeap
		}
	case m.reuse:
		m.pooled++
		if !merged {
			m.pooledHeaps++
		}
	default:
		m.keys--
		m.mapped -= m.stack
		if !merged {
			m.mapped -= m.heap
		}
	}
}

// init is InitDomain: the new domain's parent is the current domain, and a
// data domain is made only on a lone thread.
func (th *mThread) init(udi UDI, data, accessible bool, grants map[UDI]mem.Prot) (*mDomain, error) {
	m := th.m
	defer m.lock()()
	switch {
	case udi == RootUDI:
		return nil, ErrRootOperation
	case th.domains[udi] != nil:
		return nil, ErrAlreadyInit
	case m.data[udi] != nil:
		return nil, ErrUDIInUse
	}
	d := &mDomain{udi: udi, data: data, parent: th.current, accessible: accessible,
		allocs: map[mem.Addr][]byte{}, grants: map[*mDomain]mem.Prot{}}
	for tddi, prot := range grants {
		dd := m.data[tddi]
		if dd == nil {
			return nil, ErrUnknownDomain
		}
		d.grants[dd] = prot
	}
	if err := m.provision(data); err != nil {
		return nil, err
	}
	if data && m.threads > 1 {
		m.release(d, false)
		return nil, ErrSharedTopology
	}
	if data {
		m.data[udi] = d
	} else {
		th.domains[udi] = d
	}
	return d, nil
}

// open is Guard's prologue: the live domain udi, which must be a child of
// the current domain, or a new one made with the scope's options.
func (th *mThread) open(udi UDI, accessible bool, grants map[UDI]mem.Prot) (*mDomain, error) {
	switch d := th.domains[udi]; {
	case d == nil:
		return th.init(udi, false, accessible, grants)
	case d.parent != th.current:
		return nil, ErrNotChild
	default:
		return d, nil
	}
}

func (th *mThread) enter(d *mDomain) {
	th.entered = append(th.entered, th.current)
	th.current = d
}

func (th *mThread) exit() {
	th.current = th.entered[len(th.entered)-1]
	th.entered = th.entered[:len(th.entered)-1]
}

// inside returns the thread's execution domains created, directly or
// not, inside d: they go when d goes.
func (th *mThread) inside(d *mDomain) []*mDomain {
	var in []*mDomain
	for _, c := range th.domains {
		for p := c.parent; p != nil; p = p.parent {
			if p == d {
				in = append(in, c)
				break
			}
		}
	}
	return in
}

// discard drops execution domains with all they allocated.
func (th *mThread) discard(doms ...*mDomain) {
	for _, d := range doms {
		delete(th.domains, d.udi)
		th.m.release(d, false)
	}
}

// trap is an abnormal exit of the current domain: the domain and the
// domains created inside it are discarded with all they allocated, and
// the thread resumes in its parent. Nothing outside them changes.
func (th *mThread) trap(segv bool) {
	m := th.m
	defer m.lock()()
	d := th.current
	th.exit()
	th.discard(append(th.inside(d), d)...)
	m.rewinds++
	if segv {
		m.faults++
	}
}

// destroy is Destroy: a merge hands the domain's allocations to its
// parent, a discard drops them; the domains created inside it are
// discarded, and none of them, nor it, may be entered.
func (th *mThread) destroy(udi UDI, merge bool) error {
	m := th.m
	defer m.lock()()
	d := th.domains[udi]
	if d == nil {
		d = m.data[udi]
	}
	in := th.inside(d)
	entered := func(c *mDomain) bool { return c == th.current || slices.Contains(th.entered, c) }
	switch {
	case d == nil:
		return ErrUnknownDomain
	case entered(d) || slices.ContainsFunc(in, entered):
		return ErrDomainBusy
	case merge && !d.accessible:
		return ErrNotChild
	case d.data && m.threads > 1:
		return ErrSharedTopology
	}
	th.discard(in...)
	if d.data {
		delete(m.data, udi)
	} else {
		delete(th.domains, udi)
	}
	if merge {
		if d.parent == m.root {
			m.mapRoot()
		}
		for a, b := range d.allocs {
			d.parent.allocs[a] = b
		}
	}
	m.release(d, merge)
	return nil
}

func (m *model) mapRoot() {
	if !m.rootMapped {
		m.rootMapped = true
		m.mapped += m.rootHeap
	}
}

// allocTarget is where the current domain may allocate: itself, an
// accessible child, or a data domain it made accessible or may write.
func (th *mThread) allocTarget(udi UDI) (*mDomain, error) {
	cur := th.current
	switch d, dd := th.domains[udi], th.m.data[udi]; {
	case udi == cur.udi:
		return cur, nil
	case d != nil:
		if d.parent == cur && d.accessible {
			return d, nil
		}
	case dd != nil:
		if dd.parent == cur && dd.accessible || cur.grants[dd]&mem.ProtWrite != 0 {
			return dd, nil
		}
	case udi != RootUDI:
		return nil, ErrUnknownDomain
	}
	return nil, ErrNotChild
}

// malloc is Malloc, with an allocation fault armed when fail is set.
func (th *mThread) malloc(udi UDI, fail bool) (*mDomain, error) {
	m := th.m
	defer m.lock()()
	d, err := th.allocTarget(udi)
	switch {
	case err != nil:
		return nil, err
	case fail:
		return nil, ErrHeapExhausted
	case d == m.root:
		m.mapRoot()
	}
	return d, nil
}

// write records b written over the start of d's allocation at addr, or,
// with alloc, as the bytes of a new one there.
func (m *model) write(d *mDomain, addr mem.Addr, b []byte, alloc bool) {
	defer m.lock()()
	if alloc {
		d.allocs[addr] = b
	}
	copy(d.allocs[addr], b)
}

// free is Free of the allocation at addr.
func (th *mThread) free(udi UDI, addr mem.Addr) error {
	m := th.m
	defer m.lock()()
	d, err := th.allocTarget(udi)
	if err == nil {
		delete(d.allocs, addr)
	}
	return err
}

// deinit is Deinit: it ends nothing the model keeps, outside a scope.
func (th *mThread) deinit(udi UDI) error {
	if th.domains[udi] == nil {
		return ErrUnknownDomain
	}
	return nil
}

// dprotect is DProtect: the current domain or a child of it gets prot on
// the current instance of data domain tddi; root's grants change only on a
// lone thread.
func (th *mThread) dprotect(udi, tddi UDI, prot mem.Prot) error {
	m := th.m
	defer m.lock()()
	d := th.current
	if udi != d.udi {
		if d = th.domains[udi]; d == nil || d.parent != th.current {
			return ErrNotChild
		}
	}
	dd := m.data[tddi]
	switch {
	case dd == nil:
		return ErrUnknownDomain
	case d == m.root && m.threads > 1:
		return ErrSharedTopology
	case prot == mem.ProtNone:
		delete(d.grants, dd)
	default:
		d.grants[dd] = prot
	}
	return nil
}

// writable reports whether the current domain may write d's memory: its
// own, a live accessible child's, or a live data domain it holds a write
// grant on — never root's from a nested domain.
func (th *mThread) writable(d *mDomain) bool {
	cur := th.current
	switch {
	case d == cur:
		return true
	case d == th.m.root, th.domains[d.udi] != d && th.m.data[d.udi] != d:
		return false
	}
	return d.parent == cur && d.accessible || cur.grants[d]&mem.ProtWrite != 0
}
