package mem

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// PKRU bit layout: for key k, bit 2k is the access-disable (AD) bit and bit
// 2k+1 is the write-disable (WD) bit, exactly as on 64-bit x86.
const (
	// PKRUDenyAll disables access to every key.
	PKRUDenyAll uint32 = 0x5555_5555
	// PKRUInit is the architectural reset value used by Linux: every key
	// access-disabled except key 0.
	PKRUInit uint32 = 0x5555_5554
	// PKRUAllowAll grants full access to every key (all bits clear).
	PKRUAllowAll uint32 = 0
)

// PKRUAllow returns pkru with access to key enabled. If write is false the
// write-disable bit is set, yielding read-only access — the mechanism SDRaD
// uses to make the root domain readable but not writable from nested
// domains.
func PKRUAllow(pkru uint32, key int, write bool) uint32 {
	ad := uint32(1) << (2 * uint(key))
	wd := uint32(1) << (2*uint(key) + 1)
	pkru &^= ad
	if write {
		pkru &^= wd
	} else {
		pkru |= wd
	}
	return pkru
}

// PKRUDeny returns pkru with access to key fully disabled.
func PKRUDeny(pkru uint32, key int) uint32 {
	return pkru | 1<<(2*uint(key))
}

// PKRURights reports the AD/WD bits of key in pkru.
func PKRURights(pkru uint32, key int) (accessDisable, writeDisable bool) {
	return pkru&(1<<(2*uint(key))) != 0, pkru&(1<<(2*uint(key)+1)) != 0
}

// TLB geometry: direct-mapped, per CPU context.
const (
	tlbBits = 8
	tlbSize = 1 << tlbBits
	tlbMask = tlbSize - 1
)

// tlbEntry caches one translation. An entry is valid only when its epoch
// matches the CPU's current tlbEpoch; bumping the epoch (on shootdown)
// invalidates the whole TLB in O(1).
type tlbEntry struct {
	pn    uint64
	epoch uint64
	pg    *page
}

// cpuCounters are the hot access counters, owned exclusively by the CPU's
// thread and therefore plain (non-atomic) — the whole point of the per-CPU
// split is that the fast path touches no shared cache line. They are read
// by Stats.Snapshot, which callers must invoke only when quiescent with
// respect to the counted accesses (after joining worker threads), the same
// discipline per-CPU kernel counters require.
type cpuCounters struct {
	reads        int64
	writes       int64
	bytesRead    int64
	bytesWritten int64
	pkruWrites   int64
}

// CPU is a simulated hardware-thread context: the PKRU register plus a
// small TLB. Every simulated thread owns exactly one CPU and performs all
// its loads and stores through it, so protection-key rights are enforced
// per thread, as on real hardware. A CPU must only be used from the
// goroutine that models its thread.
type CPU struct {
	as   *AddressSpace
	pkru uint32

	// tlbEpoch tags valid TLB entries; needFlush is set by page-table
	// mutations (the shootdown IPI) and consumed at the next translation,
	// which bumps the epoch and thereby drops every cached entry.
	tlbEpoch  uint64
	needFlush atomic.Bool

	counts cpuCounters

	// WRPKRU lockdown: when locked, only the holder of the token (the
	// SDRaD reference monitor) may write PKRU. This models the paper's
	// R4 precondition that untrusted code contains no usable WRPKRU or
	// XRSTOR instructions — guaranteed on real systems by W^X plus binary
	// inspection (ERIM) or hardware call gates (Donky).
	wrpkruLocked bool
	wrpkruToken  uint64

	// inject, when non-nil, is consulted before every translation; see
	// SetFaultInjector.
	inject FaultInjector

	// leaseGen revokes this CPU's span leases (see lease.go): bumped on
	// every domain transition of the owning thread and whenever a fault
	// injector is installed. leases is the SpanLease cache; leaseHand its
	// round-robin eviction cursor.
	leaseGen  uint64
	leaseHand uint8
	leases    [cpuLeaseSlots]Lease

	tlb [tlbSize]tlbEntry
}

// NewCPU returns a CPU attached to the address space with the
// architectural initial PKRU value (only key 0 accessible). The CPU is
// registered with the address space for TLB shootdowns and stats
// aggregation; CPUs are created once per simulated thread, so the registry
// stays small.
func (as *AddressSpace) NewCPU() *CPU {
	c := &CPU{as: as, pkru: PKRUInit, tlbEpoch: 1}
	as.cpuMu.Lock()
	as.cpus = append(as.cpus, c)
	as.cpuMu.Unlock()
	return c
}

// shootdown flags every registered CPU to flush its TLB before the next
// translation — the simulation's TLB-shootdown IPI. Page-table mutators
// call it after publishing their changes, so a CPU that observes its flag
// clear may still use a translation from before the mutation (exactly the
// stale-TLB window real hardware has until the IPI lands), while the
// mutating thread itself always observes its own mutation.
func (as *AddressSpace) shootdown() {
	as.shootdowns.Add(1)
	// Every page-table mutation also revokes outstanding span leases: the
	// epoch bump is what downgrades a lease holder to the checked slow
	// path after a protection change, exactly as the TLB flush does for
	// cached translations.
	as.leaseEpoch.Add(1)
	as.cpuMu.Lock()
	for _, c := range as.cpus {
		c.needFlush.Store(true)
	}
	as.cpuMu.Unlock()
}

// AddressSpace returns the address space this CPU is attached to.
func (c *CPU) AddressSpace() *AddressSpace { return c.as }

// PKRU returns the current PKRU value (RDPKRU).
func (c *CPU) PKRU() uint32 { return c.pkru }

// WRPKRU writes the PKRU register. The write is counted in the address
// -space stats and, when a WRPKRU cost model is configured, burns the
// configured number of busy iterations to model the pipeline flush the
// real instruction causes.
//
// On a locked CPU (see LockWRPKRU) the call panics: it corresponds to an
// unsanctioned WRPKRU instruction in application code, which the deployed
// binary-inspection defense would have rejected at load time.
func (c *CPU) WRPKRU(v uint32) {
	if c.wrpkruLocked {
		panic("mem: WRPKRU in untrusted code (rejected by binary inspection, paper §VI R4)")
	}
	c.wrpkru(v)
}

// LockWRPKRU enables WRPKRU enforcement: after this call, only
// MonitorWRPKRU with the same token writes PKRU. It reports false if the
// CPU was already locked (the token cannot be replaced).
func (c *CPU) LockWRPKRU(token uint64) bool {
	if c.wrpkruLocked {
		return false
	}
	c.wrpkruLocked = true
	c.wrpkruToken = token
	return true
}

// WRPKRULocked reports whether the lockdown is active.
func (c *CPU) WRPKRULocked() bool { return c.wrpkruLocked }

// MonitorWRPKRU is the reference monitor's PKRU write: it presents the
// lockdown token. A wrong token panics like WRPKRU.
func (c *CPU) MonitorWRPKRU(token uint64, v uint32) {
	if c.wrpkruLocked && token != c.wrpkruToken {
		panic("mem: WRPKRU with foreign token (rejected by binary inspection, paper §VI R4)")
	}
	c.wrpkru(v)
}

func (c *CPU) wrpkru(v uint32) {
	c.pkru = v
	c.counts.pkruWrites++
	if n := c.as.wrpkruSpin; n > 0 {
		spin(n)
	}
}

// spinSink defeats dead-code elimination of the WRPKRU cost-model loop.
var spinSink uint64

func spin(n int) {
	var x uint64 = 88172645463325252
	for i := 0; i < n; i++ { // xorshift keeps the loop non-collapsible
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink = x
}

// fault raises a memory fault: it counts the event and panics with a
// *Fault, the simulation's synchronous hardware trap.
func (c *CPU) fault(addr Addr, kind AccessKind, code FaultCode, pkey int) {
	c.raise(&Fault{Addr: addr, Kind: kind, Code: code, PKey: pkey})
}

// raise counts and logs f, then panics with it.
func (c *CPU) raise(f *Fault) {
	c.as.stats.Faults.Add(1)
	c.as.recordFault(f)
	if rec := c.as.tel.Load(); rec != nil {
		rec.RecordFault(f.Code.String(), int(f.Code), uint64(f.Addr), f.PKey, f.Injected)
	}
	panic(f)
}

// translate returns the page containing addr after performing the full
// protection check for an access of the given kind, faulting on violation.
// The fast path — TLB hit with no pending shootdown — touches only
// CPU-local state plus one uncontended atomic flag load.
func (c *CPU) translate(addr Addr, kind AccessKind) *page {
	if c.inject != nil {
		if f := c.inject(addr, kind); f != nil {
			c.inject = nil // one-shot: disarm before the trap handler runs
			if f.Addr == 0 {
				f.Addr = addr
			}
			f.Injected = true
			c.raise(f)
		}
	}
	if c.needFlush.Load() {
		c.needFlush.Store(false)
		c.tlbEpoch++
	}
	pn := addr.PageNum()
	e := &c.tlb[pn&tlbMask]
	pg := e.pg
	if e.pn != pn || e.epoch != c.tlbEpoch {
		pg = c.as.lookup(pn)
		if pg == nil {
			c.fault(addr, kind, CodeMapErr, 0)
		}
		e.pn = pn
		e.epoch = c.tlbEpoch
		e.pg = pg
	}
	switch kind {
	case AccessRead:
		if pg.prot&ProtRead == 0 {
			c.fault(addr, kind, CodeAccErr, 0)
		}
	case AccessWrite:
		if pg.prot&ProtWrite == 0 {
			c.fault(addr, kind, CodeAccErr, 0)
		}
	case AccessExec:
		if pg.prot&ProtExec == 0 {
			c.fault(addr, kind, CodeAccErr, 0)
		}
	}
	// Protection keys gate data accesses only; instruction fetch is not
	// subject to PKU on x86.
	if kind != AccessExec {
		ad, wd := PKRURights(c.pkru, int(pg.pkey))
		if ad || (kind == AccessWrite && wd) {
			c.fault(addr, kind, CodePkuErr, int(pg.pkey))
		}
	}
	return pg
}

// translateRange translates addr for an access of the given kind and
// returns the accessible span starting at addr within its page, clipped to
// max bytes. It is the bulk-translation primitive: one permission check
// covers every byte of the returned span (they share a PTE), and a
// multi-page access faults at the exact first byte of the offending page
// because each page is entered through a fresh translate at its first
// touched address. Counters are the caller's responsibility.
func (c *CPU) translateRange(addr Addr, max int, kind AccessKind) []byte {
	pg := c.translate(addr, kind)
	run := pg.data[addr.PageOff():]
	if len(run) > max {
		run = run[:max]
	}
	return run
}

// AccessRun checks an access of the given kind at addr and returns a
// direct view of the underlying frame: up to max bytes, clipped at the
// page boundary. The span stays valid after page-table changes (frames are
// shared by PTE copies) but rights are only checked now — callers must not
// cache spans across domain switches. One op and len(span) bytes are
// counted.
func (c *CPU) AccessRun(addr Addr, max int, kind AccessKind) []byte {
	if max <= 0 {
		return nil
	}
	run := c.translateRange(addr, max, kind)
	if kind == AccessWrite {
		c.counts.writes++
		c.counts.bytesWritten += int64(len(run))
	} else {
		c.counts.reads++
		c.counts.bytesRead += int64(len(run))
	}
	return run
}

// ReadRun returns a readable span of up to max bytes starting at addr,
// clipped at the page boundary; see AccessRun.
func (c *CPU) ReadRun(addr Addr, max int) []byte {
	return c.AccessRun(addr, max, AccessRead)
}

// WriteRun returns a writable span of up to max bytes ending no later than
// the page boundary after addr; see AccessRun.
func (c *CPU) WriteRun(addr Addr, max int) []byte {
	return c.AccessRun(addr, max, AccessWrite)
}

// ReadRunBack returns a readable span ending at addr inclusive, extending
// backwards up to max bytes but not across addr's page boundary. The
// access is checked at addr itself, so a backward scan that walks off
// mapped memory faults at exactly the first byte the scan touches in each
// page — matching a byte-at-a-time descending loop.
func (c *CPU) ReadRunBack(addr Addr, max int) []byte {
	if max <= 0 {
		return nil
	}
	pg := c.translate(addr, AccessRead)
	hi := int(addr.PageOff()) + 1
	lo := 0
	if hi > max {
		lo = hi - max
	}
	run := pg.data[lo:hi]
	c.counts.reads++
	c.counts.bytesRead += int64(len(run))
	return run
}

// Probe performs the access check for [addr, addr+n) without moving data,
// returning the fault as an error instead of trapping. Intended for tests
// and assertions.
func (c *CPU) Probe(addr Addr, n int, kind AccessKind) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if f := AsFault(r); f != nil {
				err = f
				return
			}
			panic(r)
		}
	}()
	if n <= 0 {
		return nil
	}
	first := addr.PageNum()
	last := Addr(uint64(addr) + uint64(n) - 1).PageNum()
	for pn := first; pn <= last; pn++ {
		c.translate(Addr(pn<<PageShift), kind)
	}
	return nil
}

// ReadU8 loads one byte from addr.
func (c *CPU) ReadU8(addr Addr) byte {
	pg := c.translate(addr, AccessRead)
	c.counts.reads++
	c.counts.bytesRead++
	return pg.data[addr.PageOff()]
}

// WriteU8 stores one byte at addr.
func (c *CPU) WriteU8(addr Addr, b byte) {
	pg := c.translate(addr, AccessWrite)
	c.counts.writes++
	c.counts.bytesWritten++
	pg.data[addr.PageOff()] = b
}

// Read copies len(p) bytes starting at addr into p, faulting at the first
// inaccessible byte (partial progress is visible in p, as on hardware).
func (c *CPU) Read(addr Addr, p []byte) {
	if len(p) == 0 {
		return
	}
	c.counts.reads++
	c.counts.bytesRead += int64(len(p))
	for len(p) > 0 {
		n := copy(p, c.translateRange(addr, len(p), AccessRead))
		p = p[n:]
		addr += Addr(n)
	}
}

// Write copies p into memory starting at addr, faulting at the first
// inaccessible byte.
func (c *CPU) Write(addr Addr, p []byte) {
	if len(p) == 0 {
		return
	}
	c.counts.writes++
	c.counts.bytesWritten += int64(len(p))
	for len(p) > 0 {
		run := c.translateRange(addr, len(p), AccessWrite)
		n := copy(run, p)
		p = p[n:]
		addr += Addr(n)
	}
}

// ReadBytes returns a fresh copy of the n bytes at addr.
func (c *CPU) ReadBytes(addr Addr, n int) []byte {
	p := make([]byte, n)
	c.Read(addr, p)
	return p
}

// Memset fills [addr, addr+n) with b.
func (c *CPU) Memset(addr Addr, b byte, n int) {
	if n <= 0 {
		return
	}
	c.counts.writes++
	c.counts.bytesWritten += int64(n)
	for n > 0 {
		d := c.translateRange(addr, n, AccessWrite)
		for i := range d {
			d[i] = b
		}
		n -= len(d)
		addr += Addr(len(d))
	}
}

// Copy moves n bytes from src to dst within the address space, performing
// both the read and the write checks (a memcpy executed by this thread).
// The copy proceeds page run by page run with no staging buffer; like
// memcpy, overlapping ranges yield unspecified contents.
func (c *CPU) Copy(dst, src Addr, n int) {
	if n <= 0 {
		return
	}
	c.counts.reads++
	c.counts.bytesRead += int64(n)
	c.counts.writes++
	c.counts.bytesWritten += int64(n)
	for n > 0 {
		s := c.translateRange(src, n, AccessRead)
		d := c.translateRange(dst, len(s), AccessWrite)
		m := copy(d, s)
		src += Addr(m)
		dst += Addr(m)
		n -= m
	}
}

// ReadU64 loads a little-endian uint64 from addr.
func (c *CPU) ReadU64(addr Addr) uint64 {
	if off := addr.PageOff(); off <= PageSize-8 {
		pg := c.translate(addr, AccessRead)
		c.counts.reads++
		c.counts.bytesRead += 8
		return binary.LittleEndian.Uint64(pg.data[off:])
	}
	var b [8]byte
	c.Read(addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// WriteU64 stores a little-endian uint64 at addr.
func (c *CPU) WriteU64(addr Addr, v uint64) {
	if off := addr.PageOff(); off <= PageSize-8 {
		pg := c.translate(addr, AccessWrite)
		c.counts.writes++
		c.counts.bytesWritten += 8
		binary.LittleEndian.PutUint64(pg.data[off:], v)
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	c.Write(addr, b[:])
}

// ReadAddr loads a little-endian Addr (pointer-sized) from addr.
func (c *CPU) ReadAddr(addr Addr) Addr { return Addr(c.ReadU64(addr)) }

// WriteAddr stores a little-endian Addr at addr.
func (c *CPU) WriteAddr(addr Addr, v Addr) { c.WriteU64(addr, uint64(v)) }

// String describes the CPU context for debugging.
func (c *CPU) String() string {
	return fmt.Sprintf("CPU{PKRU=0x%08x}", c.pkru)
}
