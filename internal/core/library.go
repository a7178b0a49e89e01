package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"sdrad/internal/cacheline"
	"sdrad/internal/mem"
	"sdrad/internal/policy"
	"sdrad/internal/proc"
	"sdrad/internal/sig"
	"sdrad/internal/stack"
	"sdrad/internal/telemetry"
)

// UDI is a user domain index: the developer-chosen handle for a domain
// (Table I of the paper).
type UDI int

// RootUDI is the reserved index of the root domain.
const RootUDI UDI = 0

// Default region sizes; the C library reads these from environment
// variables, here they are Setup options.
const (
	DefaultStackSize    = 64 * 1024
	DefaultHeapSize     = 256 * 1024
	DefaultRootHeapSize = 8 * 1024 * 1024
)

// Library is the SDRaD reference monitor plus its control data. One
// Library serves one simulated process. The Go struct plays the role of
// the paper's "monitor data domain": a dedicated protection key guards a
// mapped monitor region that the monitor touches only while it has raised
// its own access rights, so domain code can never tamper with rewind
// state (requirement R4).
type Library struct {
	p *proc.Process

	rootKey    int
	monitorKey int
	// monitorBase is the monitor data domain mapping; the reference
	// monitor keeps its transition ledger there (a per-call counter and
	// the current domain index), accessible only while monitor rights
	// are raised.
	monitorBase mem.Addr

	defaultStackSize uint64
	defaultHeapSize  uint64
	rootHeapSize     uint64
	scrubOnDiscard   bool
	reuseStacks      bool
	rewindLimit      int64
	onRewind         func(RewindEvent)
	allocFault       func(udi UDI, size uint64) error
	// policy is the optional resilience-policy engine ("Unlimited
	// Lives"): consulted after every rewind and once per guard scope
	// (see admit). Nil disables all policy checks.
	policy *policy.Engine

	// pkruToken authorizes the monitor's PKRU writes on locked CPUs.
	pkruToken uint64

	mu          sync.Mutex
	threads     map[int]*threadState
	dataDomains map[UDI]*Domain
	stackPool   []*pooledStack
	root        *Domain // shared root domain
	// ledgerFree/ledgerNext manage the per-thread transition-ledger slots
	// in the monitor data domain (see monitorEnter).
	ledgerFree []mem.Addr
	ledgerNext int

	// policyGen versions every input of computePKRU (domain tables,
	// init states, keys, DProtect grants). Bumped under mu at the end of
	// each mutating critical section, so a policy cached against the
	// current generation is always derived from current state.
	policyGen atomic.Uint64

	stats Stats

	// tel is the optional telemetry recorder (nil = disabled). Hot paths
	// pay exactly one atomic pointer load to find out it is off.
	tel atomic.Pointer[telemetry.Recorder]
}

// The monitor data domain page is carved into transition-ledger slots of
// one cache line each: [0:8) call count, [8:16) owning thread id, the
// rest unused, so no two threads' per-call writes land on one line. Slot
// 0 is the shared fallback (mutex-guarded) for more live threads than
// slots; slots 1.. (63 of them) are exclusive to one live thread each, so
// the per-call ledger write needs no lock.
const (
	ledgerSlotSize = cacheline.Size
	ledgerSlots    = int(mem.PageSize / ledgerSlotSize)
)

// pooledStack is a destroyed domain's stack kept mapped for reuse
// (paper §IV-C: "we never unmap the stack area ... but keep it for
// reuse"). When the domain's heap was discarded (not merged), the heap
// region rides along — heapBase/heapSize non-zero — still mapped with
// the same protection key, so re-initializing a domain after a rewind
// skips PkeyAlloc, both MapAnon calls, and reuses the region for a
// fresh TLSF build.
type pooledStack struct {
	stk      *stack.Stack
	key      int
	size     uint64
	heapBase mem.Addr
	heapSize uint64
}

// threadState is the per-thread SDRaD control data (the C library keeps
// it in the monitor data domain, keyed by thread id). Its thread writes
// it on every monitor call, so it starts with a pad and ends with hot's:
// no other thread's record shares a line with it.
type threadState struct {
	_       cacheline.Pad
	t       *proc.Thread
	domains map[UDI]*Domain // execution domains of this thread
	current *Domain         // currently executing domain
	// enterStack records Enter nesting so Exit can restore the previous
	// domain ("switch back to the parent domain's stack").
	enterStack []enterRecord
	// last is the domain the thread's most recent lookup resolved: a
	// worker guards and enters the same udi scope after scope, so the
	// repeat costs a compare instead of a map probe.
	last *Domain
	// scopeSeq numbers this thread's recovery scopes (see newScope).
	scopeSeq uint64
	// ledgerSlot is this thread's transition-ledger slot in the monitor
	// data domain; ledgerShared marks the mutex-guarded fallback slot.
	// ledger is the thread's span lease over the slot: it is valid only
	// while the monitor key is raised, so the per-call read-modify-write
	// lands through its native window instead of three checked accesses.
	ledgerSlot   mem.Addr
	ledgerShared bool
	ledger       mem.Lease
	// rootPKRU is this thread's cached root policy, packed like
	// Domain.pkruCache: root is shared, but the children it grants are
	// the thread's own.
	rootPKRU atomic.Uint64
	// hot is this thread's share of the sharded Stats counters; it stays
	// the last field, its trailing pad ending the record.
	hot hotCounters
}

// lookup resolves one of the thread's execution domains.
func (ts *threadState) lookup(udi UDI) (*Domain, bool) {
	if d := ts.last; d != nil && d.udi == udi {
		return d, true
	}
	d, ok := ts.domains[udi]
	if ok {
		ts.last = d
	}
	return d, ok
}

// forget removes an execution domain from the thread's table.
func (ts *threadState) forget(d *Domain) {
	delete(ts.domains, d.udi)
	if ts.last == d {
		ts.last = nil
	}
}

// leave pops the top enter record when it is d's: the thread is back in
// the domain it entered d from, and d's stack contents are discarded with
// whatever frames the isolated call leaked. It is the one way out of an
// entered domain: Exit, a trap's halt (⑪) and a Guard closing its scope
// all leave through it.
func (ts *threadState) leave(d *Domain) {
	if n := len(ts.enterStack); n > 0 && ts.enterStack[n-1].entered == d {
		ts.current = ts.enterStack[n-1].prev
		ts.enterStack = ts.enterStack[:n-1]
		d.entered = false
		if d.stk != nil {
			d.stk.Reset()
		}
	}
}

type enterRecord struct {
	prev    *Domain
	entered *Domain
	// frame is the canary-protected return record pushed on the entered
	// domain's stack, held by value (Enter allocates nothing); verified
	// on Exit.
	frame stack.Frame
}

// The hot monitor counters, indexing hotCounters.n.
const (
	hotSwitches = iota
	hotCalls
	hotCopied
	numHot
)

// hotCounters is one thread's cells of the counters every monitor call
// moves. Only the owning thread adds to them — padded onto a cache line no
// other thread writes, so a guard scope costs no shared-line ping-pong —
// and they are atomic only so exposition can read them while it runs.
type hotCounters struct {
	_ cacheline.Pad
	n [numHot]atomic.Int64
	_ cacheline.Pad
}

// ThreadCounter is a monitor counter sharded per thread: Load sums the
// live threads' cells onto the total exited threads left behind.
type ThreadCounter struct {
	l       *Library
	cell    int
	retired int64 // guarded by l.mu
}

// Load returns the counter's process-wide total.
func (c *ThreadCounter) Load() int64 {
	l := c.l
	l.mu.Lock()
	defer l.mu.Unlock()
	n := c.retired
	for _, ts := range l.threads {
		n += ts.hot.n[c.cell].Load()
	}
	return n
}

// Stats counts monitor activity.
type Stats struct {
	// DomainSwitches counts Enter+Exit transitions.
	DomainSwitches ThreadCounter
	// Rewinds counts abnormal domain exits recovered by Guards.
	Rewinds atomic.Int64
	// MonitorCalls counts reference-monitor invocations (API calls).
	MonitorCalls ThreadCounter
	// Inits and Destroys count domain life-cycle events.
	Inits    atomic.Int64
	Destroys atomic.Int64
	// BytesCopied counts explicit argument/result copies through
	// lib.Copy (the paper's memcpy overhead source).
	BytesCopied ThreadCounter
}

// hot returns the sharded counters in hotCounters.n order.
func (s *Stats) hot() [numHot]*ThreadCounter {
	return [numHot]*ThreadCounter{
		hotSwitches: &s.DomainSwitches,
		hotCalls:    &s.MonitorCalls,
		hotCopied:   &s.BytesCopied,
	}
}

// SetupOption configures Setup.
type SetupOption func(*Library)

// WithDefaultStackSize sets the default nested-domain stack size.
func WithDefaultStackSize(n uint64) SetupOption {
	return func(l *Library) { l.defaultStackSize = n }
}

// WithDefaultHeapSize sets the default nested-domain heap size.
func WithDefaultHeapSize(n uint64) SetupOption {
	return func(l *Library) { l.defaultHeapSize = n }
}

// WithRootHeapSize sets the root domain heap size.
func WithRootHeapSize(n uint64) SetupOption {
	return func(l *Library) { l.rootHeapSize = n }
}

// WithScrubOnDiscard zeroes discarded domain memory. The paper leaves
// scrubbing to the developer; this option is the library-side variant
// discussed under Limitations (confidentiality of destroyed domains).
func WithScrubOnDiscard(on bool) SetupOption {
	return func(l *Library) { l.scrubOnDiscard = on }
}

// WithStackReuse toggles the stack-reuse optimization (§IV-C); disabling
// it is used by the ablation benchmarks.
func WithStackReuse(on bool) SetupOption {
	return func(l *Library) { l.reuseStacks = on }
}

// RewindEvent describes one absorbed attack, for incident reporting.
// The paper (§VI, Applicability) suggests feeding rewinds to a Security
// Information and Event Management system as early warnings of an attack
// campaign, and blocking repeat offenders upstream.
type RewindEvent struct {
	// Seq is the process-wide rewind sequence number (1-based).
	Seq int64
	// ThreadID and ThreadName identify the victim thread.
	ThreadID   int
	ThreadName string
	// FailedUDI is the discarded domain.
	FailedUDI UDI
	// Signal, Code, Addr, PKey describe the detection oracle.
	Signal sig.Signal
	Code   int
	Addr   uint64
	PKey   int
}

// WithRewindObserver registers a callback invoked on every abnormal
// domain exit, after the failing domain has been discarded and before
// execution resumes at the recovery point. The callback runs on the
// victim thread and must not call back into the library.
func WithRewindObserver(fn func(RewindEvent)) SetupOption {
	return func(l *Library) { l.onRewind = fn }
}

// WithTelemetry attaches a telemetry recorder: domain-lifecycle events
// feed its flight recorder, every rewind synthesizes a forensics report,
// and the monitor's native counters are mirrored into its metrics
// registry. One recorder may serve several libraries (e.g. one per worker
// process); their counter callbacks sum into one series.
func WithTelemetry(rec *telemetry.Recorder) SetupOption {
	return func(l *Library) { l.tel.Store(rec) }
}

// WithRewindLimit forces process termination once limit rewinds have
// been absorbed, implementing the paper's probabilistic-defense
// protection (§VI, Limitations): unbounded rewinding would let an
// attacker probe ASLR-style defenses indefinitely, so after the limit
// the application is restarted instead of rewound.
func WithRewindLimit(limit int) SetupOption {
	return func(l *Library) { l.rewindLimit = int64(limit) }
}

// WithPolicy attaches a resilience-policy engine: the monitor consults
// it after every absorbed rewind (the decision lands in the rewind's
// forensics report) and once per guard scope, before the scope runs or
// re-creates its nested execution domain — a held-off, quarantined or
// shedding domain's Guard fails with ErrDomainQuarantined, and the
// application routes to its degraded path. When a telemetry recorder is
// also attached, Setup wires the engine's gauges and escalation counters
// into its registry.
func WithPolicy(e *policy.Engine) SetupOption {
	return func(l *Library) { l.policy = e }
}

// Setup initializes SDRaD for a process: it allocates the root and
// monitor protection keys, maps the monitor data domain, and registers
// the thread constructor that gives every thread its root-domain state.
// It mirrors the constructor that the C library runs before main() (paper
// §IV-B, "Initialization"). The SIGSEGV handler needs no installing: it
// is every Guard's recovery (handleTrap), and a trap no Guard recovers
// terminates the process in proc's supervisor (paper: "For faults
// occurring in the root domain ... the process is still terminated").
func Setup(p *proc.Process, opts ...SetupOption) (*Library, error) {
	l := &Library{
		p:                p,
		defaultStackSize: DefaultStackSize,
		defaultHeapSize:  DefaultHeapSize,
		rootHeapSize:     DefaultRootHeapSize,
		reuseStacks:      true,
		threads:          make(map[int]*threadState),
		dataDomains:      make(map[UDI]*Domain),
	}
	for _, o := range opts {
		o(l)
	}
	for cell, c := range l.stats.hot() {
		c.l, c.cell = l, cell
	}
	l.pkruToken = p.Rand64()
	as := p.AddressSpace()
	var err error
	if l.rootKey, err = as.PkeyAlloc(); err != nil {
		return nil, fmt.Errorf("sdrad: allocating root key: %w", err)
	}
	if l.monitorKey, err = as.PkeyAlloc(); err != nil {
		return nil, fmt.Errorf("sdrad: allocating monitor key: %w", err)
	}
	if l.monitorBase, err = as.MapAnon(mem.PageSize, mem.ProtRW, l.monitorKey); err != nil {
		return nil, fmt.Errorf("sdrad: mapping monitor domain: %w", err)
	}

	// The shared root domain: all application memory tagged with the
	// root key (and untagged key-0 memory) belongs to it.
	l.root = &Domain{
		udi:  RootUDI,
		kind: ExecDomain,
		key:  l.rootKey,
		lib:  l,
	}

	if rec := l.tel.Load(); rec != nil {
		l.attachTelemetry(rec)
		if l.policy != nil {
			l.policy.AttachTelemetry(rec)
		}
	}

	p.RegisterThreadConstructor(func(t *proc.Thread) error {
		l.initThread(t)
		return nil
	})
	// Thread exit releases the thread's execution domains (and their
	// protection keys) like a pthread TLS destructor; without this,
	// short-lived threads with nested domains would exhaust the 15 keys.
	p.RegisterThreadDestructor(func(t *proc.Thread) {
		l.destroyThread(t)
	})
	return l, nil
}

// destroyThread tears down a finished thread's SDRaD state: every
// execution domain it initialized is destroyed (heaps discarded, stacks
// pooled, keys recycled) and its control data is dropped.
func (l *Library) destroyThread(t *proc.Thread) {
	ts, ok := t.Local.(*threadState)
	if !ok {
		return
	}
	// The thread is gone: no domain can be "current" anymore.
	ts.current = l.root
	ts.enterStack = nil
	for _, d := range ts.domains {
		if d.isRoot() {
			continue
		}
		d.entered = false
		_ = l.unpublish(ts, d) // an execution domain: never refused
		l.discardHeap(t, d)
		l.releaseDomain(t, d)
	}
	l.mu.Lock()
	delete(l.threads, t.ID())
	// Fold the thread's counter cells into the retired base in the same
	// critical section that drops it from the table, so a concurrent Load
	// sees its counts exactly once.
	for cell, c := range l.stats.hot() {
		c.retired += ts.hot.n[cell].Load()
	}
	if !ts.ledgerShared && ts.ledgerSlot != 0 {
		// Recycle the ledger slot without zeroing it: the accumulated
		// count stays in the monitor domain, so the audit's sum over all
		// slots remains the total call count.
		l.ledgerFree = append(l.ledgerFree, ts.ledgerSlot)
		ts.ledgerSlot = 0
	}
	l.mu.Unlock()
	if rec := l.tel.Load(); rec != nil {
		rec.RecordThreadExit(t.ID())
	}
}

// initThread builds the per-thread control data and grants the thread
// root-domain rights.
func (l *Library) initThread(t *proc.Thread) {
	ts := &threadState{
		t:       t,
		domains: make(map[UDI]*Domain),
		current: l.root,
	}
	ts.domains[RootUDI] = l.root
	t.Local = ts
	l.mu.Lock()
	l.threads[t.ID()] = ts
	switch {
	case len(l.ledgerFree) > 0:
		ts.ledgerSlot = l.ledgerFree[len(l.ledgerFree)-1]
		l.ledgerFree = l.ledgerFree[:len(l.ledgerFree)-1]
	case l.ledgerNext+1 < ledgerSlots:
		l.ledgerNext++ // slot 0 stays the shared fallback
		ts.ledgerSlot = l.monitorBase + mem.Addr(l.ledgerNext*ledgerSlotSize)
	default:
		ts.ledgerSlot = l.monitorBase
		ts.ledgerShared = true
	}
	l.mu.Unlock()
	// From here on, only the reference monitor may touch PKRU (R4).
	c := t.CPU()
	c.LockWRPKRU(l.pkruToken)
	// Mint the ledger-slot lease under monitor rights, then start the
	// thread executing in the root domain.
	root := l.computePKRU(ts, l.root)
	l.wrpkru(t, mem.PKRUAllow(root, l.monitorKey, true))
	ts.ledger = c.NewLease(ts.ledgerSlot, ledgerSlotSize, mem.AccessWrite)
	l.wrpkru(t, root)
	if rec := l.tel.Load(); rec != nil {
		rec.RecordThreadStart(t.ID())
	}
}

// state returns the thread's SDRaD control data, initializing it if the
// thread predates Setup (possible in tests).
func (l *Library) state(t *proc.Thread) *threadState {
	if ts, ok := t.Local.(*threadState); ok {
		return ts
	}
	l.initThread(t)
	return t.Local.(*threadState)
}

// Process returns the process this library instance serves.
func (l *Library) Process() *proc.Process { return l.p }

// RootKey returns the protection key of the root domain. Application
// substrates use it to tag memory they map themselves.
func (l *Library) RootKey() int { return l.rootKey }

// MonitorBase returns the address of the monitor data domain (exposed for
// the security tests that verify domain code cannot touch it).
func (l *Library) MonitorBase() mem.Addr { return l.monitorBase }

// Stats returns the live monitor counters.
func (l *Library) Stats() *Stats { return &l.stats }

// admit is the resilience-policy admission of one guard scope: Guard asks
// it for a live execution domain and InitDomain for one it is about to
// create, so every scope is admitted exactly once. Without an engine it
// is one nil check.
func (l *Library) admit(udi UDI) error {
	if l.policy == nil {
		return nil
	}
	if dec := l.policy.Admit(int(udi)); !dec.Allowed() {
		return &QuarantineError{UDI: udi, State: dec.State, RetryAfterNs: dec.RetryAfterNs}
	}
	return nil
}

// Current returns the UDI of the domain the thread is executing in.
func (l *Library) Current(t *proc.Thread) UDI {
	return l.state(t).current.udi
}

// monitorEnter raises the monitor's own access rights (one WRPKRU) and
// records the call in the monitor data domain. Every public API call is
// bracketed by monitorEnter/monitorExit, which is where the two PKRU
// writes per transition — the dominant switch cost in the paper's
// profiling — come from.
//
// The transition ledger is sharded: each live thread owns a slot of one
// cache line in the monitor data domain, so the per-call read-modify-write
// is thread-private, needs no lock and shares no line with another thread
// (a real monitor keeps per-thread transition logs for the same reason).
// The audit sums the slots against the summed call counter.
func (l *Library) monitorEnter(t *proc.Thread) {
	c := t.CPU()
	l.wrpkru(t, mem.PKRUAllow(c.PKRU(), l.monitorKey, true))
	ts := l.state(t)
	ts.hot.n[hotCalls].Add(1)
	if ts.ledgerShared {
		// Fallback slot shared by overflow threads: serialize the RMW.
		// Unlock via defer: the ledger writes go through the CPU and can
		// trap (e.g. under fault injection); the library mutex must not
		// survive the panic unwind.
		l.mu.Lock()
		defer l.mu.Unlock()
	}
	// The monitor key was just raised, so the slot's lease is valid (or
	// renews) and the record lands through its native window. A refusal —
	// an armed fault injector, above all — takes the checked accessors,
	// which trap exactly where they always did.
	if b, ok := ts.ledger.Window(); ok {
		binary.LittleEndian.PutUint64(b, binary.LittleEndian.Uint64(b)+1)
		binary.LittleEndian.PutUint64(b[8:], uint64(t.ID()))
		return
	}
	slot := ts.ledgerSlot
	c.WriteU64(slot, c.ReadU64(slot)+1)
	c.WriteU64(slot+8, uint64(t.ID()))
}

// monitorExit lowers rights back to the policy of the thread's current
// domain, recomputed from the (possibly just-changed) control data. The
// monitor owns the PKRU register: whatever internal raises an API call
// performed are dropped here.
func (l *Library) monitorExit(t *proc.Thread) {
	ts := l.state(t)
	l.wrpkru(t, l.computePKRU(ts, ts.current))
}

// wrpkru is the monitor's PKRU write, presenting the lockdown token.
func (l *Library) wrpkru(t *proc.Thread, v uint32) {
	t.CPU().MonitorWRPKRU(l.pkruToken, v)
}

// computePKRU derives the PKRU policy for executing domain d on thread
// ts: the domain's own key is fully accessible; the root domain is
// read-only from nested domains (globals readable, not writable); keys of
// accessible initialized children are granted; data-domain grants
// configured via Grant or DProtect apply while the data domain they were
// given for lives; everything else — including the monitor key — is
// denied. A child is an execution domain of this thread or a data
// domain: no thread's policy names a sibling's execution domain, so a
// sibling's rewind cannot leave a grant in this thread's register, and
// the shared inputs (data domains, root's grants) change only on a lone
// thread (loneLocked). So no register drifts from its policy.
//
// The derived value is cached, tagged with the policy generation it was
// derived from; monitorExit — two per API call — then costs an atomic
// load instead of a locked walk. Every policy input mutates under the
// library mutex with a generation bump at the end of the critical
// section, so a cache entry tagged with the current generation is always
// current (a walk that raced a mutation reads the pre-bump generation and
// caches a value that can never be served).
func (l *Library) computePKRU(ts *threadState, d *Domain) uint32 {
	cache := &d.pkruCache
	if d.isRoot() {
		cache = &ts.rootPKRU
	}
	gen := l.policyGen.Load()
	// The tag packs the generation into 32 bits; the generation counts
	// domain-topology mutations and cannot realistically wrap.
	if c := cache.Load(); c != 0 && c>>32 == gen&0xffffffff {
		return uint32(c)
	}
	pkru := l.derivePKRU(ts, d)
	cache.Store((gen&0xffffffff)<<32 | uint64(pkru))
	return pkru
}

// derivePKRU is the uncached policy walk. It locks the library mutex:
// a thread that starts derives its first policy while a lone thread may
// be changing data domains or the root's grants (see loneLocked).
func (l *Library) derivePKRU(ts *threadState, d *Domain) uint32 {
	pkru := mem.PKRUDenyAll
	pkru = mem.PKRUAllow(pkru, d.key, true)
	if d.isRoot() {
		// Untagged (key 0) memory also belongs to the root domain.
		pkru = mem.PKRUAllow(pkru, 0, true)
	} else {
		pkru = mem.PKRUAllow(pkru, l.rootKey, false)
		pkru = mem.PKRUAllow(pkru, 0, false)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, table := range [...]map[UDI]*Domain{ts.domains, l.dataDomains} {
		for _, c := range table {
			if c.parent == d && c.accessible && c.initialized {
				pkru = mem.PKRUAllow(pkru, c.key, true)
			}
		}
	}
	for dd, prot := range d.grants {
		if !dd.initialized {
			continue
		}
		switch {
		case prot&mem.ProtWrite != 0:
			pkru = mem.PKRUAllow(pkru, dd.key, true)
		case prot&mem.ProtRead != 0:
			pkru = mem.PKRUAllow(pkru, dd.key, false)
		}
	}
	return pkru
}

// loneLocked refuses a shared-topology change — a data domain created or
// destroyed, a grant of the root domain changed — unless the caller is
// the library's only live thread: every thread's policy derives from
// that state, and the monitor can rewrite only the caller's register.
// The caller holds l.mu and makes the change in the same critical
// section, so a thread starting meanwhile is registered either before
// the check, and the change is refused, or after the change, and derives
// its first policy from it.
func (l *Library) loneLocked() error {
	if len(l.threads) > 1 {
		return ErrSharedTopology
	}
	return nil
}

// lookupDataDomain returns the global data domain for udi, or nil.
func (l *Library) lookupDataDomain(udi UDI) *Domain {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dataDomains[udi]
}

// newScope issues a recovery-scope identifier, unique in the process
// without a shared counter: the thread's id above its own sequence.
func (ts *threadState) newScope() uint64 {
	ts.scopeSeq++
	return uint64(ts.t.ID())<<40 | ts.scopeSeq
}

// takePooledStack returns a reusable stack of at least size bytes, or
// nil. Entries whose pooled heap also fits heapSize are preferred — the
// caller then skips the heap mapping entirely.
func (l *Library) takePooledStack(size, heapSize uint64) *pooledStack {
	if !l.reuseStacks {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	best := -1
	for i, ps := range l.stackPool {
		if ps.size < size {
			continue
		}
		if ps.heapBase != 0 && ps.heapSize >= heapSize {
			best = i
			break
		}
		if best == -1 {
			best = i
		}
	}
	if best == -1 {
		return nil
	}
	ps := l.stackPool[best]
	l.stackPool = append(l.stackPool[:best], l.stackPool[best+1:]...)
	return ps
}

// HeapPooled reports whether addr falls inside a discarded heap region
// currently parked in the stack pool. External auditors (e.g. the chaos
// engine's residual-mapping check) use it to tell a legitimate pooled
// heap — still mapped, scrubbed, awaiting reuse — from a leaked mapping.
func (l *Library) HeapPooled(addr mem.Addr) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, ps := range l.stackPool {
		if ps.heapBase != 0 && addr >= ps.heapBase && addr < ps.heapBase+mem.Addr(ps.heapSize) {
			return true
		}
	}
	return false
}

// returnPooledStack parks a stack (and its protection key) for reuse.
// Returns false if pooling is disabled, in which case the caller unmaps.
func (l *Library) returnPooledStack(ps *pooledStack) bool {
	if !l.reuseStacks {
		return false
	}
	ps.stk.Reset()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stackPool = append(l.stackPool, ps)
	return true
}
