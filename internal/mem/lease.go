package mem

// This file implements ERIM-style span leases: the check-elision fast path
// of the simulated MMU. A lease verifies a span's protection once — page
// presence, page permissions, a single protection key, PKRU rights — and
// hands out a native []byte window over the backing frames, so parser and
// storage inner loops touch memory at native speed instead of paying a
// checked accessor per run.
//
// Safety comes from revocation, not from rechecking: the lease records the
// address-space lease epoch and the issuing CPU's lease generation at
// verification time, and every event that could change the answer bumps
// one of the two:
//
//   - leaseEpoch (per address space, atomic): bumped by every page-table
//     mutation's shootdown (Map/Unmap/Protect/PkeyMprotect). A
//     reference-monitor policy change (domain init, discard, DProtect
//     grants) bumps nothing: it changes no page table entry, and the PKRU
//     it does change is re-derived below.
//   - leaseGen (per CPU, plain): bumped by InvalidateLeases on the rewind
//     unwind paths and by SetFaultInjector — forced revocation for events
//     that must drop every window regardless of what the page table says.
//
// PKRU rights are not revoked, they are re-derived: Valid rechecks the
// span's single protection key against the CPU's live PKRU value on every
// access (a shift and mask, exactly the check the hardware makes per
// load), so an Enter/Exit domain transition — which only rewrites PKRU —
// costs outstanding leases nothing. The per-access validity check is one
// atomic epoch load, two plain field loads, and the PKRU mask. A stale
// lease is never an error: Renew re-verifies with a full page re-walk,
// and on refusal the caller falls back to the existing checked accessors,
// which raise the exact fault the unleased code would have raised — same
// si_code at the same first faulting byte, injector hooks preserved. The
// window between a successful validity check and the access is the same
// stale-TLB window real hardware has until a shootdown IPI lands.
//
// Counting discipline: a grant or renewal counts one op covering the whole
// span (the same span-counted-once discipline AccessRun uses); individual
// accesses through the window are not counted.

// Lease is a verified native window over [base, base+n). The zero Lease is
// invalid and never renews. A Lease must only be used from the goroutine
// modeling the CPU's thread.
type Lease struct {
	c    *CPU
	base Addr
	n    int
	kind AccessKind

	data    []byte // native window, len n, set by verify
	pkey    uint8  // the single protection key tagging every page of the span
	asEpoch uint64 // as.leaseEpoch at verification
	cpuGen  uint64 // c.leaseGen at verification
	ok      bool
}

// NewLease verifies [base, base+n) for accesses of the given kind and
// returns the lease. On refusal (unmapped or non-contiguous backing, mixed
// protection keys, insufficient page or PKRU rights, armed fault injector)
// the lease is returned invalid; it may still become valid later through
// Renew. A write-kind lease also serves reads, matching PKU semantics
// (write permission implies access permission).
func (c *CPU) NewLease(base Addr, n int, kind AccessKind) Lease {
	l := Lease{c: c, base: base, n: n, kind: kind}
	l.verify()
	return l
}

// Base returns the first address covered by the lease.
func (l *Lease) Base() Addr { return l.base }

// Len returns the number of bytes covered by the lease.
func (l *Lease) Len() int { return l.n }

// Valid reports whether the lease's verification is still current. The
// structural half (backing pages, page permissions, single key) is
// vouched for by the generations; the rights half is re-derived from the
// CPU's live PKRU on every call — the same per-access key check the
// hardware makes — so a domain transition that only rewrites PKRU neither
// invalidates the lease nor costs a re-walk.
func (l *Lease) Valid() bool {
	c := l.c
	if !l.ok || c.inject != nil ||
		l.cpuGen != c.leaseGen || l.asEpoch != c.as.leaseEpoch.Load() {
		return false
	}
	ad, wd := PKRURights(c.pkru, int(l.pkey))
	return !ad && (l.kind != AccessWrite || !wd)
}

// Renew attempts to bring a stale lease back to validity with a full
// re-verification walk. It returns false on refusal (insufficient rights
// under the current PKRU, armed injector, changed backing), leaving the
// lease renewable later.
func (l *Lease) Renew() bool {
	if l.verify() {
		l.c.as.leaseRenewals.Add(1)
		return true
	}
	return false
}

// Bytes returns the native window over [addr, addr+n] when it lies inside
// the lease and the lease is (or renews to) valid. On any refusal it
// returns ok=false and the caller must fall back to the checked accessors.
func (l *Lease) Bytes(addr Addr, n int) ([]byte, bool) {
	if n <= 0 || addr < l.base || uint64(addr-l.base)+uint64(n) > uint64(l.n) {
		return nil, false
	}
	if !l.Valid() && !l.Renew() {
		return nil, false
	}
	off := uint64(addr - l.base)
	return l.data[off : off+uint64(n)], true
}

// Window returns the whole leased span; see Bytes.
func (l *Lease) Window() ([]byte, bool) {
	if l.n <= 0 {
		return nil, false
	}
	if !l.Valid() && !l.Renew() {
		return nil, false
	}
	return l.data, true
}

// leasePageOK performs the per-page half of translate's checks (page
// permission, then PKRU) for a prospective lease, without faulting.
func leasePageOK(pg *page, pkru uint32, kind AccessKind) bool {
	if kind == AccessWrite {
		if pg.prot&ProtWrite == 0 {
			return false
		}
	} else if pg.prot&ProtRead == 0 {
		return false
	}
	ad, wd := PKRURights(pkru, int(pg.pkey))
	return !ad && (kind != AccessWrite || !wd)
}

// verify is the full issuance probe: it replicates translate's checks over
// every page of the span without faulting, requires one contiguous backing
// allocation under one protection key, and snapshots the revocation
// generations. The epoch is loaded before the walk, so a mutation racing
// with verification at worst yields a lease that is already stale at its
// first use and re-verifies then.
func (l *Lease) verify() bool {
	c := l.c
	as := c.as
	if l.n <= 0 || c.inject != nil {
		l.ok = false
		as.leaseRefusals.Add(1)
		return false
	}
	epoch := as.leaseEpoch.Load()
	first := l.base.PageNum()
	last := Addr(uint64(l.base) + uint64(l.n) - 1).PageNum()
	pg0 := as.lookup(first)
	if pg0 == nil || len(pg0.span) == 0 || !leasePageOK(pg0, c.pkru, l.kind) {
		l.ok = false
		as.stats.LeasePagesWalked.Add(1)
		as.leaseRefusals.Add(1)
		return false
	}
	for pn := first + 1; pn <= last; pn++ {
		pg := as.lookup(pn)
		// The single-key requirement is load-bearing for Valid: rights are
		// re-derived for l.pkey alone, so a second key in the span would
		// escape the per-access PKRU check.
		if pg == nil || len(pg.span) == 0 || pg.pkey != pg0.pkey ||
			!leasePageOK(pg, c.pkru, l.kind) ||
			&pg.span[0] != &pg0.span[0] ||
			pg.spanOff != pg0.spanOff+(pn-first)<<PageShift {
			l.ok = false
			as.stats.LeasePagesWalked.Add(int64(pn - first + 1))
			as.leaseRefusals.Add(1)
			return false
		}
	}
	as.stats.LeasePagesWalked.Add(int64(last - first + 1))
	start := pg0.spanOff + l.base.PageOff()
	l.data = pg0.span[start : start+uint64(l.n)]
	l.pkey = pg0.pkey
	l.asEpoch = epoch
	l.cpuGen = c.leaseGen
	l.ok = true
	l.count()
	as.leaseGrants.Add(1)
	return true
}

// count records a grant or renewal in the CPU's access counters as one op
// covering the span, mirroring AccessRun's span-counted-once discipline.
func (l *Lease) count() {
	if l.kind == AccessWrite {
		l.c.counts.writes++
		l.c.counts.bytesWritten += int64(l.n)
	} else {
		l.c.counts.reads++
		l.c.counts.bytesRead += int64(l.n)
	}
}

// cpuLeaseSlots sizes the per-CPU lease cache; SpanLease evicts round-robin
// beyond it. Sixteen covers a worker's batch slots plus the storage arena
// with room to spare.
const cpuLeaseSlots = 16

// SpanLease returns this CPU's cached lease for exactly (base, n, kind),
// minting (and evicting round-robin) on miss. The returned pointer aliases
// the CPU's cache and is owned by the CPU's thread; callers use it
// immediately via Bytes/Window rather than retaining it.
func (c *CPU) SpanLease(base Addr, n int, kind AccessKind) *Lease {
	for i := range c.leases {
		l := &c.leases[i]
		if l.c != nil && l.base == base && l.n == n && l.kind == kind {
			return l
		}
	}
	i := int(c.leaseHand) % cpuLeaseSlots
	c.leaseHand++
	l := &c.leases[i]
	*l = Lease{c: c, base: base, n: n, kind: kind}
	l.verify()
	return l
}

// InvalidateLeases forcibly revokes every lease minted by this CPU: the
// next use falls into Renew's full re-walk. The reference monitor calls
// it on the rewind unwind paths (a rewound domain's windows must die even
// if its pages survive) and when it closes a guard scope left without
// Exit, and SetFaultInjector calls it so an armed
// injector tears down windows immediately. Ordinary Enter/Exit domain
// transitions do NOT invalidate: they only rewrite PKRU, which Valid
// re-derives per access.
func (c *CPU) InvalidateLeases() { c.leaseGen++ }
