package core

import (
	"fmt"

	"sdrad/internal/mem"
	"sdrad/internal/proc"
)

// This file exposes the reference monitor's bookkeeping read-only, so the
// model's drivers and the chaos engine can audit it after every absorbed
// rewind.
// "Unlimited Lives" (Gülmez et al.) shows that in-process recovery systems
// fail exactly here — state left inconsistent after a rollback — so the
// audit re-derives every invariant the monitor relies on instead of
// trusting the monitor's own view.

// DomainAudit names one live domain the audit walked.
type DomainAudit struct {
	UDI  UDI
	Kind Kind
	Key  int
}

// AuditReport is the result of one invariant audit on one thread.
type AuditReport struct {
	CurrentUDI UDI
	EnterDepth int
	// PKRU is the register value observed on entry; ExpectedPKRU is the
	// policy re-derived from the control data. They must be equal.
	PKRU         uint32
	ExpectedPKRU uint32
	// LedgerCalls is the monitor-call counter read from the transition
	// ledger in the monitor data domain; MonitorCalls is the Go-side
	// statistic it must match when the process is quiescent.
	LedgerCalls  uint64
	MonitorCalls int64
	// Domains lists this thread's execution domains (excluding root) and
	// every global data domain.
	Domains []DomainAudit
	// PooledStacks is the stack-reuse pool size.
	PooledStacks int
	// PooledHeaps counts pool entries that also carry a discarded heap
	// region kept mapped for reuse.
	PooledHeaps int
	// AccountedBytes sums the mapped bytes attributable to SDRaD state
	// visible from this thread: the monitor page, the root heap, this
	// thread's domain stacks and heaps, data-domain heaps, and pooled
	// stacks. It can never exceed MappedBytes; on a single-threaded
	// process it equals MappedBytes minus the application's mappings.
	AccountedBytes uint64
	// MappedBytes is the address-space mapped-bytes gauge at audit time.
	MappedBytes int64
	// Findings lists every violated invariant; empty means the audit
	// passed.
	Findings []string
}

// Ok reports whether the audit found no violations.
func (r *AuditReport) Ok() bool { return len(r.Findings) == 0 }

func (r *AuditReport) findingf(format string, args ...any) {
	r.Findings = append(r.Findings, fmt.Sprintf(format, args...))
}

// Audit re-derives the monitor's invariants for the calling thread and
// reports violations. It must run on the thread it audits, like every
// library call. The checks assume the process is quiescent (no other
// thread mid-API-call); campaign drivers audit between requests.
//
// Audit deliberately does not use monitorEnter/monitorExit: the ledger
// and MonitorCalls counters are themselves audited, so the audit must not
// move them. It temporarily raises protection keys to walk allocator
// metadata and restores the observed PKRU value before returning.
func (l *Library) Audit(t *proc.Thread) *AuditReport {
	ts := l.state(t)
	c := t.CPU()
	as := l.p.AddressSpace()

	r := &AuditReport{
		CurrentUDI:   ts.current.udi,
		EnterDepth:   len(ts.enterStack),
		PKRU:         c.PKRU(),
		MonitorCalls: l.stats.MonitorCalls.Load(),
		MappedBytes:  as.Stats().MappedBytes.Load(),
	}
	// The ERIM-style integrity condition: the register holds exactly the
	// policy of the executing domain. A thread's policy changes only
	// through its own monitor calls — its execution domains are its own,
	// and data domains and root's grants change only on a lone thread
	// (loneLocked) — so any difference, in either direction, means a
	// rewind or a monitor bug left the register stale.
	r.ExpectedPKRU = l.computePKRU(ts, ts.current)
	if r.PKRU != r.ExpectedPKRU {
		r.findingf("pkru differs from the policy: have 0x%08x, policy for domain %d is 0x%08x (stale bits 0x%08x)",
			r.PKRU, ts.current.udi, r.ExpectedPKRU, r.PKRU^r.ExpectedPKRU)
	}

	// Transition-ledger consistency: the ledger is sharded into
	// per-thread slots (see monitorEnter); their sum moves in lockstep
	// with the Go-side statistic.
	var ledger [mem.PageSize]byte
	if err := as.KernelRead(l.monitorBase, ledger[:]); err != nil {
		r.findingf("monitor ledger unreadable: %v", err)
	} else {
		var sum uint64
		for off := 0; off < len(ledger); off += ledgerSlotSize {
			s := ledger[off:]
			sum += uint64(s[0]) | uint64(s[1])<<8 |
				uint64(s[2])<<16 | uint64(s[3])<<24 |
				uint64(s[4])<<32 | uint64(s[5])<<40 |
				uint64(s[6])<<48 | uint64(s[7])<<56
		}
		r.LedgerCalls = sum
		if r.LedgerCalls != uint64(r.MonitorCalls) {
			r.findingf("monitor ledger desync: ledger=%d stats=%d",
				r.LedgerCalls, r.MonitorCalls)
		}
	}

	l.auditEnterStack(r, ts)
	keys := l.auditDomains(t, r, ts)
	l.auditPool(r, as, keys)

	r.AccountedBytes += mem.PageSize // monitor data domain
	l.mu.Lock()
	if l.root.heapBase != 0 {
		r.AccountedBytes += l.root.heapSize
	}
	l.mu.Unlock()
	if r.MappedBytes >= 0 && r.AccountedBytes > uint64(r.MappedBytes) {
		r.findingf("accounted SDRaD bytes %d exceed mapped bytes %d",
			r.AccountedBytes, r.MappedBytes)
	}

	// Heap walks below raised keys; restore the rights observed on entry.
	l.wrpkru(t, r.PKRU)
	return r
}

// auditEnterStack validates the Enter/Exit nesting records: the chain of
// prev/entered links must be contiguous, end at the current domain, and
// every return-record canary must still be intact.
func (l *Library) auditEnterStack(r *AuditReport, ts *threadState) {
	if len(ts.enterStack) == 0 {
		if !ts.current.isRoot() {
			r.findingf("current domain %d with empty enter stack", ts.current.udi)
		}
		return
	}
	c := ts.t.CPU()
	for i := range ts.enterStack {
		rec := &ts.enterStack[i]
		if rec.entered == nil || rec.prev == nil {
			r.findingf("enter record %d incomplete", i)
			continue
		}
		if !rec.entered.entered {
			r.findingf("enter record %d: domain %d not flagged entered", i, rec.entered.udi)
		}
		if i > 0 && rec.prev != ts.enterStack[i-1].entered {
			r.findingf("enter record %d: broken nesting chain", i)
		}
		// The return record lives on the entered domain's stack; raise its
		// key to read the canary.
		l.wrpkru(ts.t, mem.PKRUAllow(c.PKRU(), rec.entered.key, true))
		if !rec.frame.CanaryIntact(c) {
			r.findingf("enter record %d: return-record canary smashed in domain %d",
				i, rec.entered.udi)
		}
	}
	if top := ts.enterStack[len(ts.enterStack)-1].entered; top != ts.current {
		r.findingf("enter stack top is domain %d but current is %d",
			top.udi, ts.current.udi)
	}
}

// auditDomains validates this thread's execution domains and the global
// data domains: region mappings, page keys, key uniqueness, and TLSF heap
// consistency. It returns the set of live protection keys seen.
func (l *Library) auditDomains(t *proc.Thread, r *AuditReport, ts *threadState) map[int]UDI {
	as := l.p.AddressSpace()
	keys := map[int]UDI{l.rootKey: RootUDI, l.monitorKey: -1}

	var domains []*Domain
	for _, d := range ts.domains {
		if !d.isRoot() {
			domains = append(domains, d)
		}
	}
	l.mu.Lock()
	for _, d := range l.dataDomains {
		domains = append(domains, d)
	}
	l.mu.Unlock()

	for _, d := range domains {
		r.Domains = append(r.Domains, DomainAudit{UDI: d.udi, Kind: d.kind, Key: d.key})

		if !d.initialized {
			r.findingf("domain %d in table but not initialized", d.udi)
		}
		if prev, dup := keys[d.key]; dup {
			r.findingf("domain %d shares protection key %d with domain %d",
				d.udi, d.key, prev)
		}
		keys[d.key] = d.udi
		if !as.KeyAllocated(d.key) {
			r.findingf("domain %d key %d not allocated in the address space",
				d.udi, d.key)
		}
		if d.entered {
			found := false
			for _, rec := range ts.enterStack {
				if rec.entered == d {
					found = true
				}
			}
			if !found {
				r.findingf("domain %d flagged entered but absent from enter stack", d.udi)
			}
		}
		l.auditRegion(r, as, d.udi, "heap", d.heapBase, d.heapSize, d.key)
		r.AccountedBytes += d.heapSize
		if d.kind == ExecDomain {
			l.auditRegion(r, as, d.udi, "stack", d.stackBase, d.stackSize, d.key)
			r.AccountedBytes += d.stackSize
		}
		if d.heap != nil {
			l.auditHeap(t, r, d)
		}
	}
	// The root heap is shared; check it too when it exists.
	if l.root.heap != nil {
		l.auditHeap(t, r, l.root)
	}
	return keys
}

// auditRegion checks one provisioned region: fully mapped, and every page
// tagged with the domain's key.
func (l *Library) auditRegion(r *AuditReport, as *mem.AddressSpace, udi UDI, what string, base mem.Addr, size uint64, key int) {
	if base == 0 || size == 0 {
		r.findingf("domain %d has no %s region", udi, what)
		return
	}
	if !as.Mapped(base, int(size)) {
		r.findingf("domain %d %s region [0x%x,+%d) not fully mapped", udi, what, uint64(base), size)
		return
	}
	for off := uint64(0); off < size; off += mem.PageSize {
		if _, pkey, ok := as.PageInfo(base + mem.Addr(off)); !ok || pkey != key {
			r.findingf("domain %d %s page 0x%x tagged key %d, want %d",
				udi, what, uint64(base)+off, pkey, key)
			return
		}
	}
}

// auditHeap runs the TLSF consistency check on a domain heap, raising the
// domain key for the walk.
func (l *Library) auditHeap(t *proc.Thread, r *AuditReport, d *Domain) {
	c := t.CPU()
	l.wrpkru(t, mem.PKRUAllow(c.PKRU(), d.key, true))
	err := func() error {
		d.lockHeap()
		defer d.unlockHeap()
		return d.heap.Check(c)
	}()
	if err != nil {
		r.findingf("domain %d heap check: %v", d.udi, err)
	}
}

// auditPool validates the stack-reuse pool: keys still allocated and not
// shared with live domains, and — when scrub-on-discard is on — every
// pooled page zeroed, proving discard really scrubbed. Pooled heap
// regions (discarded exec-domain heaps that ride along with their
// stack) get the same treatment: mapped, accounted, and scrubbed.
func (l *Library) auditPool(r *AuditReport, as *mem.AddressSpace, keys map[int]UDI) {
	l.mu.Lock()
	pool := make([]*pooledStack, len(l.stackPool))
	copy(pool, l.stackPool)
	l.mu.Unlock()
	r.PooledStacks = len(pool)
	buf := make([]byte, mem.PageSize)
	// scrubbed checks every page of a pooled region reads back zero.
	scrubbed := func(what string, i int, base mem.Addr, size uint64) {
		for off := uint64(0); off < size; off += mem.PageSize {
			if err := as.KernelRead(base+mem.Addr(off), buf); err != nil {
				r.findingf("pooled %s %d unreadable at +0x%x: %v", what, i, off, err)
				return
			}
			for _, b := range buf {
				if b != 0 {
					r.findingf("pooled %s %d not scrubbed at +0x%x", what, i, off)
					return
				}
			}
		}
	}
	for i, ps := range pool {
		if owner, dup := keys[ps.key]; dup {
			r.findingf("pooled stack %d key %d still tags live domain %d", i, ps.key, owner)
		}
		if !as.KeyAllocated(ps.key) {
			r.findingf("pooled stack %d key %d not allocated", i, ps.key)
		}
		if ps.heapBase != 0 {
			if !as.Mapped(ps.heapBase, int(ps.heapSize)) {
				r.findingf("pooled heap %d region not mapped", i)
			} else {
				r.PooledHeaps++
				r.AccountedBytes += ps.heapSize
				if l.scrubOnDiscard {
					scrubbed("heap", i, ps.heapBase, ps.heapSize)
				}
			}
		}
		if !as.Mapped(ps.stk.Base(), int(ps.size)) {
			r.findingf("pooled stack %d region not mapped", i)
			continue
		}
		r.AccountedBytes += ps.size
		if l.scrubOnDiscard {
			scrubbed("stack", i, ps.stk.Base(), ps.size)
		}
	}
}
