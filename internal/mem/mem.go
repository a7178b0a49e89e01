// Package mem implements a simulated 64-bit virtual address space with
// 4 KiB pages, page-granular memory protection, and Memory Protection Keys
// (MPK/PKU) semantics equivalent to those of 64-bit x86 processors.
//
// The package is the hardware substrate for the SDRaD reproduction: the
// original system relies on Intel PKU, which cannot be exercised from Go
// (the runtime scheduler and garbage collector conflict with per-thread
// PKRU state and foreign stacks), so every byte of "application memory" in
// this repository lives in a simulated AddressSpace and every load/store is
// performed through a CPU context that enforces page protections and
// protection-key rights exactly the way the hardware would:
//
//   - each mapped page carries read/write/execute permissions and a 4-bit
//     protection key stored in its (simulated) page-table entry;
//   - each hardware thread owns a PKRU register with access-disable (AD)
//     and write-disable (WD) bits per key, checked on every data access;
//   - violations raise a Fault carrying the same si_code discrimination
//     Linux delivers to user space (SEGV_MAPERR, SEGV_ACCERR, SEGV_PKUERR).
//
// Faults are reported by panicking with a *Fault value, playing the role of
// a synchronous hardware trap; the process layer (internal/proc) and the
// SDRaD reference monitor (internal/core) contain the "signal handlers"
// that recover such panics and decide between rewinding and termination.
//
// The page table is a lock-free two-level radix tree (see DESIGN.md,
// "MMU fast path"): translations never take a lock, mutations serialize on
// a mutex and publish through atomic pointer stores plus a per-CPU TLB
// shootdown flag.
package mem

import (
	"errors"
	"sync"
	"sync/atomic"

	"sdrad/internal/telemetry"
)

// Page geometry of the simulated MMU. The values match x86-64 4 KiB pages.
const (
	PageShift = 12
	PageSize  = 1 << PageShift
	PageMask  = PageSize - 1
)

// NumKeys is the number of protection keys available to a process. Intel
// PKU provides 16 keys, of which key 0 is the implicit default for all
// memory not explicitly tagged.
const NumKeys = 16

// Addr is a virtual address in the simulated address space.
type Addr uint64

// PageNum returns the virtual page number containing a.
func (a Addr) PageNum() uint64 { return uint64(a) >> PageShift }

// PageOff returns the offset of a within its page.
func (a Addr) PageOff() uint64 { return uint64(a) & PageMask }

// PageAligned reports whether a is aligned to a page boundary.
func (a Addr) PageAligned() bool { return uint64(a)&PageMask == 0 }

// Prot is a page-protection bit set, mirroring PROT_READ/WRITE/EXEC.
type Prot uint8

// Page protection bits.
const (
	ProtNone  Prot = 0
	ProtRead  Prot = 1 << 0
	ProtWrite Prot = 1 << 1
	ProtExec  Prot = 1 << 2
	ProtRW         = ProtRead | ProtWrite
	ProtRX         = ProtRead | ProtExec
)

func (p Prot) String() string {
	b := [3]byte{'-', '-', '-'}
	if p&ProtRead != 0 {
		b[0] = 'r'
	}
	if p&ProtWrite != 0 {
		b[1] = 'w'
	}
	if p&ProtExec != 0 {
		b[2] = 'x'
	}
	return string(b[:])
}

// Errors returned by mapping and key-management operations.
var (
	ErrNoKeys       = errors.New("mem: no free protection keys")
	ErrBadKey       = errors.New("mem: invalid or unallocated protection key")
	ErrOverlap      = errors.New("mem: mapping overlaps an existing mapping")
	ErrUnmapped     = errors.New("mem: address range is not fully mapped")
	ErrAlignment    = errors.New("mem: address is not page aligned")
	ErrBadLength    = errors.New("mem: length must be positive")
	ErrWXViolation  = errors.New("mem: mapping would be writable and executable (W^X)")
	ErrKeyInUse     = errors.New("mem: protection key still tags mapped pages")
	ErrOutOfAddress = errors.New("mem: simulated address space exhausted")
)

// page is a simulated page-table entry together with its backing frame.
// Once published into the page table a page is immutable except for its
// data: protection or key changes replace the entry with a copy sharing the
// same frame (copy-on-write of the PTE), so lock-free readers always see a
// consistent (prot, pkey) pair.
type page struct {
	data []byte // len == PageSize
	// span is the whole backing array of the mapping this page was created
	// in, and spanOff this page's byte offset within it. Map allocates one
	// contiguous backing array per mapping, so two pages belong to the same
	// mapping exactly when their spans share a first element; span leases
	// use this to hand out multi-page native windows (see lease.go).
	// Protection changes preserve span identity through the PTE copy.
	span    []byte
	spanOff uint64
	prot    Prot
	pkey    uint8
}

// Two-level radix page-table geometry. The root is an inline array of
// atomic pointers to leaves; each leaf is an array of atomic pointers to
// pages. Together they cover 2^(rootBits+leafBits) pages = 2 TiB of
// virtual address space, far above the simulation's bump-allocated
// placements; pages beyond that fall back to a mutex-guarded overflow map.
const (
	leafBits     = 14
	rootBits     = 15
	leafPages    = 1 << leafBits
	coveredPages = 1 << (rootBits + leafBits)
)

// pageLeaf is one second-level page-table node covering 64 MiB of VA.
type pageLeaf [leafPages]atomic.Pointer[page]

// AddressSpace is a simulated per-process virtual address space: a sparse
// page table plus protection-key allocation state. All methods are safe for
// concurrent use by multiple simulated threads; data accesses to distinct
// bytes behave like real shared memory (no implicit synchronization).
type AddressSpace struct {
	// root is the first radix level. Translation reads it lock-free;
	// mutations (all serialized on mu) publish entries with atomic stores.
	// Leaves are allocated on first use and never freed — an empty leaf is
	// just a cached interior node, as in a real page table.
	root [1 << rootBits]atomic.Pointer[pageLeaf]

	// mu serializes all page-table and key-state mutations. Translations
	// never take it.
	mu       sync.Mutex
	pkeys    [NumKeys]bool    // allocated keys; key 0 always allocated
	keyPages [NumKeys]int64   // mapped pages tagged with each key
	overflow map[uint64]*page // pages with pn >= coveredPages
	nextMap  Addr             // bump pointer for MapAnon placement

	// overflowMu guards overflow for lock-free-path readers; mutators hold
	// mu as well.
	overflowMu sync.RWMutex

	// cpuMu guards cpus, the registry of CPU contexts attached to this
	// address space. CPUs are per simulated thread, so the registry is
	// small and bounded by the process's thread count.
	cpuMu sync.Mutex
	cpus  []*CPU

	// guardGap is the unmapped gap (bytes) MapAnon leaves between regions
	// so that large overflows out of a mapping hit unmapped memory, the
	// moral equivalent of guard pages between process mappings.
	guardGap uint64

	// wrpkruSpin models the pipeline-serialization cost of WRPKRU as busy
	// iterations; see WithWRPKRUCost.
	wrpkruSpin int

	// faults is the bounded log of recent traps; see RecentFaults.
	faults faultLog

	// shootdowns counts shootdown broadcasts; tel is the optional
	// telemetry recorder (nil = disabled, see SetTelemetry).
	shootdowns atomic.Int64
	tel        atomic.Pointer[telemetry.Recorder]

	// leaseEpoch revokes outstanding span leases (see lease.go): bumped by
	// every shootdown. The grant/renewal/refusal
	// counters record lease traffic for telemetry.
	leaseEpoch    atomic.Uint64
	leaseGrants   atomic.Int64
	leaseRenewals atomic.Int64
	leaseRefusals atomic.Int64

	stats Stats
}

// mapAnonBase is where MapAnon starts placing regions. Placed high so that
// small integers used as lengths or indices never alias valid addresses.
const mapAnonBase Addr = 0x1_0000_0000

// defaultGuardGap separates MapAnon regions by 16 unmapped pages.
const defaultGuardGap = 16 * PageSize

// Option configures an AddressSpace.
type Option func(*AddressSpace)

// WithGuardGap sets the unmapped gap MapAnon leaves between regions.
func WithGuardGap(bytes uint64) Option {
	return func(as *AddressSpace) { as.guardGap = bytes }
}

// WithWRPKRUCost sets the modeled cost of a PKRU write, expressed as busy
// iterations executed inside WRPKRU. The real instruction costs ~20-30 ns
// because it serializes the pipeline; benchmarks use this knob to study how
// sensitive SDRaD overhead is to the hardware cost (paper §V-B observes
// 30-50% of domain-switch cost is the PKRU write).
func WithWRPKRUCost(iterations int) Option {
	return func(as *AddressSpace) { as.wrpkruSpin = iterations }
}

// NewAddressSpace returns an empty address space with protection key 0
// allocated (the architectural default key).
func NewAddressSpace(opts ...Option) *AddressSpace {
	as := &AddressSpace{
		nextMap:  mapAnonBase,
		guardGap: defaultGuardGap,
	}
	as.pkeys[0] = true
	as.stats.as = as
	for _, o := range opts {
		o(as)
	}
	return as
}

// PkeyAlloc allocates a fresh protection key (1..15), mirroring the
// pkey_alloc(2) system call. It fails with ErrNoKeys when all 15
// allocatable keys are in use — the same resource limit the paper notes
// caps the number of simultaneously isolated domains.
func (as *AddressSpace) PkeyAlloc() (int, error) {
	as.mu.Lock()
	defer as.mu.Unlock()
	for k := 1; k < NumKeys; k++ {
		if !as.pkeys[k] {
			as.pkeys[k] = true
			return k, nil
		}
	}
	return 0, ErrNoKeys
}

// PkeyFree releases a protection key, mirroring pkey_free(2). Freeing a key
// that still tags mapped pages is refused (the real syscall permits it but
// the result is a well-known foot-gun; SDRaD never needs it).
func (as *AddressSpace) PkeyFree(key int) error {
	if key <= 0 || key >= NumKeys {
		return ErrBadKey
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	if !as.pkeys[key] {
		return ErrBadKey
	}
	if as.keyPages[key] != 0 {
		return ErrKeyInUse
	}
	as.pkeys[key] = false
	return nil
}

// KeyAllocated reports whether key is currently allocated.
func (as *AddressSpace) KeyAllocated(key int) bool {
	if key < 0 || key >= NumKeys {
		return false
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	return as.pkeys[key]
}

// roundUp rounds n up to a multiple of PageSize.
func roundUp(n int) uint64 {
	return (uint64(n) + PageMask) &^ uint64(PageMask)
}

// lookup returns the page containing pn or nil. It is the translation slow
// path (TLB miss) and takes no locks on the radix-covered range.
func (as *AddressSpace) lookup(pn uint64) *page {
	if pn < coveredPages {
		leaf := as.root[pn>>leafBits].Load()
		if leaf == nil {
			return nil
		}
		return leaf[pn&(leafPages-1)].Load()
	}
	as.overflowMu.RLock()
	pg := as.overflow[pn]
	as.overflowMu.RUnlock()
	return pg
}

// setPage publishes (or, with nil, removes) the page-table entry for pn.
// Callers hold as.mu; readers observe the change via atomic loads.
func (as *AddressSpace) setPage(pn uint64, pg *page) {
	if pn < coveredPages {
		slot := &as.root[pn>>leafBits]
		leaf := slot.Load()
		if leaf == nil {
			if pg == nil {
				return
			}
			leaf = new(pageLeaf)
			slot.Store(leaf)
		}
		leaf[pn&(leafPages-1)].Store(pg)
		return
	}
	as.overflowMu.Lock()
	if pg == nil {
		delete(as.overflow, pn)
	} else {
		if as.overflow == nil {
			as.overflow = make(map[uint64]*page)
		}
		as.overflow[pn] = pg
	}
	as.overflowMu.Unlock()
}

// Map establishes a mapping of length bytes at addr with the given
// protection and key, mirroring mmap(MAP_FIXED)+pkey_mprotect. addr must be
// page aligned and the range must not overlap an existing mapping. W^X is
// enforced at mapping time (threat-model assumption A1 of the paper).
func (as *AddressSpace) Map(addr Addr, length int, prot Prot, pkey int) error {
	if !addr.PageAligned() {
		return ErrAlignment
	}
	if length <= 0 {
		return ErrBadLength
	}
	if prot&ProtWrite != 0 && prot&ProtExec != 0 {
		return ErrWXViolation
	}
	if pkey < 0 || pkey >= NumKeys {
		return ErrBadKey
	}
	npages := roundUp(length) >> PageShift
	as.mu.Lock()
	defer as.mu.Unlock()
	if !as.pkeys[pkey] {
		return ErrBadKey
	}
	base := addr.PageNum()
	if base+npages < base {
		return ErrOutOfAddress
	}
	for i := uint64(0); i < npages; i++ {
		if as.lookup(base+i) != nil {
			return ErrOverlap
		}
	}
	// One slab of page structs and one backing array per mapping: the
	// radix walk chases root -> leaf -> *page -> data, and individually
	// allocated structs land wherever the allocator's span layout puts
	// them, making the walk's cache behavior (and the translate_miss
	// benchmark) bimodal across processes. Contiguity by construction
	// keeps it flat. The slab stays reachable until every page of the
	// mapping is unmapped and re-protect copies have dropped their frame
	// references — acceptable, since regions are unmapped as units.
	slab := make([]page, npages)
	data := make([]byte, int(npages)<<PageShift)
	for i := uint64(0); i < npages; i++ {
		pg := &slab[i]
		lo := int(i) << PageShift
		pg.data = data[lo : lo+PageSize : lo+PageSize]
		pg.span = data
		pg.spanOff = uint64(lo)
		pg.prot = prot
		pg.pkey = uint8(pkey)
		as.setPage(base+i, pg)
	}
	as.keyPages[pkey] += int64(npages)
	as.stats.MappedBytes.Add(int64(npages) * PageSize)
	as.shootdown()
	return nil
}

// MapAnon establishes a mapping of length bytes at an address chosen by the
// address space (mmap with addr=NULL). Consecutive MapAnon regions are
// separated by an unmapped guard gap.
func (as *AddressSpace) MapAnon(length int, prot Prot, pkey int) (Addr, error) {
	if length <= 0 {
		return 0, ErrBadLength
	}
	as.mu.Lock()
	addr := as.nextMap
	span := roundUp(length)
	if uint64(addr)+span < uint64(addr) {
		as.mu.Unlock()
		return 0, ErrOutOfAddress
	}
	as.nextMap = addr + Addr(span+as.guardGap)
	as.mu.Unlock()
	if err := as.Map(addr, length, prot, pkey); err != nil {
		return 0, err
	}
	return addr, nil
}

// Unmap removes the mapping covering [addr, addr+length), mirroring
// munmap(2). The full range must be mapped.
func (as *AddressSpace) Unmap(addr Addr, length int) error {
	if !addr.PageAligned() {
		return ErrAlignment
	}
	if length <= 0 {
		return ErrBadLength
	}
	npages := roundUp(length) >> PageShift
	as.mu.Lock()
	defer as.mu.Unlock()
	base := addr.PageNum()
	for i := uint64(0); i < npages; i++ {
		if as.lookup(base+i) == nil {
			return ErrUnmapped
		}
	}
	for i := uint64(0); i < npages; i++ {
		pg := as.lookup(base + i)
		as.keyPages[pg.pkey]--
		as.setPage(base+i, nil)
	}
	as.stats.MappedBytes.Add(-int64(npages) * PageSize)
	as.shootdown()
	return nil
}

// Protect changes the page protection of [addr, addr+length), mirroring
// mprotect(2). The key is left untouched.
func (as *AddressSpace) Protect(addr Addr, length int, prot Prot) error {
	return as.protect(addr, length, prot, -1)
}

// PkeyMprotect changes protection and key of [addr, addr+length),
// mirroring pkey_mprotect(2).
func (as *AddressSpace) PkeyMprotect(addr Addr, length int, prot Prot, pkey int) error {
	if pkey < 0 || pkey >= NumKeys {
		return ErrBadKey
	}
	return as.protect(addr, length, prot, pkey)
}

func (as *AddressSpace) protect(addr Addr, length int, prot Prot, pkey int) error {
	if !addr.PageAligned() {
		return ErrAlignment
	}
	if length <= 0 {
		return ErrBadLength
	}
	if prot&ProtWrite != 0 && prot&ProtExec != 0 {
		return ErrWXViolation
	}
	npages := roundUp(length) >> PageShift
	as.mu.Lock()
	defer as.mu.Unlock()
	if pkey >= 0 && !as.pkeys[pkey] {
		return ErrBadKey
	}
	base := addr.PageNum()
	for i := uint64(0); i < npages; i++ {
		if as.lookup(base+i) == nil {
			return ErrUnmapped
		}
	}
	for i := uint64(0); i < npages; i++ {
		old := as.lookup(base + i)
		// Copy-on-write of the PTE: lock-free readers may hold the old
		// entry, which stays internally consistent; they pick up the new
		// rights after the shootdown below, exactly like a stale TLB entry
		// on hardware.
		next := &page{data: old.data, span: old.span, spanOff: old.spanOff, prot: prot, pkey: old.pkey}
		if pkey >= 0 && uint8(pkey) != old.pkey {
			as.keyPages[old.pkey]--
			as.keyPages[pkey]++
			next.pkey = uint8(pkey)
		}
		as.setPage(base+i, next)
	}
	as.shootdown()
	return nil
}

// PageInfo returns the protection and key of the page containing addr.
// ok is false when the page is unmapped.
func (as *AddressSpace) PageInfo(addr Addr) (prot Prot, pkey int, ok bool) {
	pg := as.lookup(addr.PageNum())
	if pg == nil {
		return 0, 0, false
	}
	return pg.prot, int(pg.pkey), true
}

// Mapped reports whether the whole range [addr, addr+length) is mapped.
func (as *AddressSpace) Mapped(addr Addr, length int) bool {
	if length <= 0 {
		return false
	}
	first := addr.PageNum()
	last := (Addr(uint64(addr) + uint64(length) - 1)).PageNum()
	for pn := first; pn <= last; pn++ {
		if as.lookup(pn) == nil {
			return false
		}
	}
	return true
}

// forEachPage calls f for every mapped page. Caller holds as.mu.
func (as *AddressSpace) forEachPage(f func(pn uint64, pg *page)) {
	for ri := range as.root {
		leaf := as.root[ri].Load()
		if leaf == nil {
			continue
		}
		for li := range leaf {
			if pg := leaf[li].Load(); pg != nil {
				f(uint64(ri)<<leafBits|uint64(li), pg)
			}
		}
	}
	as.overflowMu.RLock()
	for pn, pg := range as.overflow {
		f(pn, pg)
	}
	as.overflowMu.RUnlock()
}

// Stats returns the address-space counters. The returned pointer is live;
// callers read the atomic gauge fields directly or aggregate the per-CPU
// counters with Snapshot.
func (as *AddressSpace) Stats() *Stats { return &as.stats }
