package mem

import (
	"sync"
	"testing"
)

// leaseFixture is the fixed layout the bounds tests lease against:
//
//	prim  4 pages RW  key k1  — one Map call, one backing span
//	adj   2 pages RW  key k1  — immediately after prim, separate span
//	mixed 2 pages RW  k1|k2   — one span, second page re-keyed to k2
//	ro    1 page  R   key k1
//
// The CPU's PKRU allows both keys for reads and writes, so every refusal
// below comes from the span's structure, not from rights.
type leaseFixture struct {
	as                   *AddressSpace
	c                    *CPU
	prim, adj, mixed, ro Addr
	k1, k2               int
}

func newLeaseFixture(t *testing.T) *leaseFixture {
	t.Helper()
	as := NewAddressSpace()
	k1, err := as.PkeyAlloc()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := as.PkeyAlloc()
	if err != nil {
		t.Fatal(err)
	}
	f := &leaseFixture{
		as: as, k1: k1, k2: k2,
		prim:  0x10_0000,
		mixed: 0x20_0000,
		ro:    0x30_0000,
	}
	f.adj = f.prim + 4*PageSize
	if err := as.Map(f.prim, 4*PageSize, ProtRW, k1); err != nil {
		t.Fatal(err)
	}
	if err := as.Map(f.adj, 2*PageSize, ProtRW, k1); err != nil {
		t.Fatal(err)
	}
	if err := as.Map(f.mixed, 2*PageSize, ProtRW, k1); err != nil {
		t.Fatal(err)
	}
	if err := as.PkeyMprotect(f.mixed+PageSize, PageSize, ProtRW, k2); err != nil {
		t.Fatal(err)
	}
	if err := as.Map(f.ro, PageSize, ProtRead, k1); err != nil {
		t.Fatal(err)
	}
	f.c = as.NewCPU()
	f.c.WRPKRU(PKRUAllow(PKRUAllow(PKRUInit, k1, true), k2, true))
	return f
}

// TestLeaseBounds pins down which spans may lease: a lease must cover one
// contiguous backing allocation under one protection key with sufficient
// page rights, and refuse everything else — in particular spans that cross
// a mapping edge into an adjacent-but-distinct mapping, the case a naive
// "every page is mapped" probe would wrongly admit.
func TestLeaseBounds(t *testing.T) {
	f := newLeaseFixture(t)
	cases := []struct {
		name string
		base Addr
		n    int
		kind AccessKind
		want bool
	}{
		{"interior of one page", f.prim + 16, 100, AccessWrite, true},
		{"exactly one page", f.prim, PageSize, AccessWrite, true},
		{"straddles page boundary", f.prim + PageSize - 8, 16, AccessWrite, true},
		{"whole four-page mapping", f.prim, 4 * PageSize, AccessWrite, true},
		{"last byte of mapping", f.prim + 4*PageSize - 1, 1, AccessWrite, true},
		{"crosses into adjacent mapping", f.prim + 4*PageSize - 8, 16, AccessWrite, false},
		{"adjacent mapping alone", f.adj, 2 * PageSize, AccessWrite, true},
		{"runs past last mapped page", f.adj + 2*PageSize - 8, 16, AccessWrite, false},
		{"starts unmapped", f.adj + 2*PageSize, 8, AccessRead, false},
		{"mixed keys across pages", f.mixed + PageSize - 8, 16, AccessRead, false},
		{"first key alone", f.mixed, PageSize, AccessWrite, true},
		{"re-keyed page alone", f.mixed + PageSize, PageSize, AccessWrite, true},
		{"write lease on read-only page", f.ro, 8, AccessWrite, false},
		{"read lease on read-only page", f.ro, 8, AccessRead, true},
		{"zero length", f.prim, 0, AccessRead, false},
		{"negative length", f.prim, -5, AccessRead, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := f.c.NewLease(tc.base, tc.n, tc.kind)
			if got := l.Valid(); got != tc.want {
				t.Fatalf("NewLease(%#x, %d, %v).Valid() = %v, want %v",
					tc.base, tc.n, tc.kind, got, tc.want)
			}
			if w, ok := l.Window(); ok != tc.want {
				t.Fatalf("Window() ok = %v, want %v", ok, tc.want)
			} else if ok && len(w) != tc.n {
				t.Fatalf("Window() len = %d, want %d", len(w), tc.n)
			}
		})
	}
}

// TestLeaseWindowAliasesMemory verifies the window is the real backing:
// writes through it are visible to the checked accessors and vice versa.
func TestLeaseWindowAliasesMemory(t *testing.T) {
	f := newLeaseFixture(t)
	l := f.c.NewLease(f.prim+PageSize-4, 8, AccessWrite)
	w, ok := l.Window()
	if !ok {
		t.Fatal("window refused")
	}
	w[0] = 0xAB
	if got := f.c.ReadU8(f.prim + PageSize - 4); got != 0xAB {
		t.Fatalf("checked read after window write = %#x, want 0xAB", got)
	}
	f.c.WriteU8(f.prim+PageSize+3, 0xCD)
	if w[7] != 0xCD {
		t.Fatalf("window byte after checked write = %#x, want 0xCD", w[7])
	}
}

// TestLeaseBytesSubrange checks Bytes' range arithmetic at the span edges.
func TestLeaseBytesSubrange(t *testing.T) {
	f := newLeaseFixture(t)
	base := f.prim + 100
	l := f.c.NewLease(base, 64, AccessWrite)
	for _, tc := range []struct {
		name string
		addr Addr
		n    int
		want bool
	}{
		{"full span", base, 64, true},
		{"interior", base + 10, 20, true},
		{"last byte", base + 63, 1, true},
		{"before base", base - 1, 4, false},
		{"past end", base + 60, 8, false},
		{"zero bytes", base, 0, false},
		{"negative bytes", base, -1, false},
	} {
		if b, ok := l.Bytes(tc.addr, tc.n); ok != tc.want {
			t.Errorf("%s: Bytes(%#x, %d) ok = %v, want %v", tc.name, tc.addr, tc.n, ok, tc.want)
		} else if ok && len(b) != tc.n {
			t.Errorf("%s: len = %d, want %d", tc.name, len(b), tc.n)
		}
	}
}

// TestLeaseLivePKRURights pins the core of the check-elision design: lease
// validity re-derives the span key's rights from the CPU's live PKRU on
// every access. Dropping the key's rights makes the lease invalid at once
// (no revocation event needed); restoring them makes it valid again
// without any renewal walk.
func TestLeaseLivePKRURights(t *testing.T) {
	f := newLeaseFixture(t)
	as, c := f.as, f.c
	wl := c.NewLease(f.prim, 64, AccessWrite)
	rl := c.NewLease(f.prim, 64, AccessRead)
	if !wl.Valid() || !rl.Valid() {
		t.Fatal("fresh leases invalid")
	}
	renewals := as.leaseRenewals.Load()

	// Deny the key entirely: both kinds go invalid.
	allowed := c.PKRU()
	c.WRPKRU(PKRUDeny(allowed, f.k1))
	if wl.Valid() || rl.Valid() {
		t.Fatal("leases valid under access-denied PKRU")
	}

	// Write-deny only: the read lease works, the write lease does not —
	// the same asymmetry the hardware key check has.
	c.WRPKRU(PKRUAllow(PKRUDeny(allowed, f.k1), f.k1, false))
	if wl.Valid() {
		t.Fatal("write lease valid under write-disabled PKRU")
	}
	if !rl.Valid() {
		t.Fatal("read lease invalid under write-disabled (access-enabled) PKRU")
	}

	// Restore full rights: validity comes back by itself. No Renew walk
	// may have run for it — that is the Enter/Exit-costs-nothing property.
	c.WRPKRU(allowed)
	if !wl.Valid() || !rl.Valid() {
		t.Fatal("leases not valid again after rights restored")
	}
	if got := as.leaseRenewals.Load(); got != renewals {
		t.Fatalf("rights round-trip cost %d renewals, want 0", got-renewals)
	}

	// An access ATTEMPTED while rights are down refuses (Bytes neither
	// elides the check nor faults), and the failed renewal walk marks the
	// lease unverified: restoring rights alone no longer suffices, the
	// next use pays one Renew re-walk.
	c.WRPKRU(PKRUDeny(allowed, f.k1))
	if _, ok := wl.Bytes(f.prim, 8); ok {
		t.Fatal("Bytes elided the check under access-denied PKRU")
	}
	c.WRPKRU(allowed)
	if wl.Valid() {
		t.Fatal("lease valid without renewal after a refused access")
	}
	if !wl.Renew() {
		t.Fatal("Renew failed after rights restored")
	}
	if got := as.leaseRenewals.Load(); got != renewals+1 {
		t.Fatalf("refusal round-trip cost %d renewals, want 1", got-renewals)
	}
}

// TestLeaseRevocation covers the two forced-revocation channels — the
// address-space lease epoch (page-table mutations) and the per-CPU
// generation (InvalidateLeases) — and that Renew's full re-walk brings a
// lease back exactly when the span would lease afresh.
func TestLeaseRevocation(t *testing.T) {
	f := newLeaseFixture(t)
	as, c := f.as, f.c
	l := c.NewLease(f.prim, 2*PageSize, AccessWrite)

	// A protection round trip on a page outside the span still mutates
	// the page table: the shootdown revokes every lease in the address
	// space, and the re-walk finds the span unchanged.
	for _, prot := range []Prot{ProtRead, ProtRW} {
		if err := as.Protect(f.prim+3*PageSize, PageSize, prot); err != nil {
			t.Fatal(err)
		}
	}
	if l.Valid() {
		t.Fatal("lease valid across a Protect round trip")
	}
	if !l.Renew() {
		t.Fatal("Renew failed with unchanged span")
	}

	c.InvalidateLeases()
	if l.Valid() {
		t.Fatal("lease valid across InvalidateLeases")
	}
	if !l.Renew() {
		t.Fatal("Renew failed after InvalidateLeases with unchanged span")
	}

	// Downgrade the pages: the shootdown revokes, and Renew must refuse a
	// write lease until the pages are writable again.
	if err := as.Protect(f.prim, 4*PageSize, ProtRead); err != nil {
		t.Fatal(err)
	}
	if l.Valid() {
		t.Fatal("write lease valid across Protect(r--)")
	}
	if l.Renew() {
		t.Fatal("write lease renewed over read-only pages")
	}
	if err := as.Protect(f.prim, 4*PageSize, ProtRW); err != nil {
		t.Fatal(err)
	}
	if !l.Renew() {
		t.Fatal("Renew failed after rights restored")
	}

	// Unmap kills it; remapping the range lets Renew re-verify against the
	// fresh backing.
	if err := as.Unmap(f.prim, 4*PageSize); err != nil {
		t.Fatal(err)
	}
	if l.Valid() || l.Renew() {
		t.Fatal("lease usable over unmapped range")
	}
	if err := as.Map(f.prim, 4*PageSize, ProtRW, f.k1); err != nil {
		t.Fatal(err)
	}
	if !l.Renew() {
		t.Fatal("Renew failed over remapped range")
	}
	if w, ok := l.Window(); !ok || len(w) != 2*PageSize {
		t.Fatal("window refused after remap renewal")
	}
}

// TestLeaseInjectorFaultSemantics verifies the property the chaos engine
// depends on: an armed fault injector tears down every window (Valid and
// Renew both refuse while armed), so the access falls back to the checked
// path and the injected fault fires with its exact code and address — the
// same si_code at the same byte an unleased access would report.
func TestLeaseInjectorFaultSemantics(t *testing.T) {
	f := newLeaseFixture(t)
	c := f.c
	l := c.NewLease(f.prim, 64, AccessWrite)
	if !l.Valid() {
		t.Fatal("fresh lease invalid")
	}

	c.SetFaultInjector(func(addr Addr, kind AccessKind) *Fault {
		return &Fault{Kind: kind, Code: CodePkuErr, PKey: f.k1}
	})
	if l.Valid() {
		t.Fatal("lease valid with injector armed")
	}
	if l.Renew() {
		t.Fatal("lease renewed with injector armed")
	}
	if _, ok := l.Bytes(f.prim, 8); ok {
		t.Fatal("Bytes elided the check with injector armed")
	}

	// The checked fallback raises the injected fault at the exact access:
	// same code, same first faulting byte (Probe translates page-wise, so
	// go through the byte accessor the real fallback uses).
	target := f.prim + 17
	fault := func() (fault *Fault) {
		defer func() { fault = AsFault(recover()) }()
		c.WriteU8(target, 0xFF)
		return nil
	}()
	if fault == nil {
		t.Fatal("checked fallback did not raise the injected fault")
	}
	if fault.Code != CodePkuErr || fault.Addr != target || !fault.Injected {
		t.Fatalf("fault = code %v addr %#x injected %v, want PKUERR at %#x injected",
			fault.Code, fault.Addr, fault.Injected, target)
	}

	// The injector is one-shot: having fired it is disarmed, and the lease
	// comes back through a renewal walk.
	if c.FaultInjectorArmed() {
		t.Fatal("injector still armed after firing")
	}
	if l.Valid() {
		t.Fatal("lease valid without renewal after injector cycle")
	}
	if !l.Renew() {
		t.Fatal("Renew failed after injector disarmed")
	}
}

// TestSpanLeaseCache exercises the per-CPU lease cache: hits return the
// same slot, and round-robin eviction past the capacity still yields
// freshly verified leases.
func TestSpanLeaseCache(t *testing.T) {
	f := newLeaseFixture(t)
	c := f.c
	a := c.SpanLease(f.prim, 64, AccessWrite)
	if a != c.SpanLease(f.prim, 64, AccessWrite) {
		t.Fatal("identical span missed the cache")
	}
	if a == c.SpanLease(f.prim, 64, AccessRead) {
		t.Fatal("different kind hit the same slot")
	}
	// Blow through the cache: every lease handed out must still be usable.
	for i := 0; i < 2*cpuLeaseSlots; i++ {
		l := c.SpanLease(f.prim+Addr(i*8), 8, AccessWrite)
		if _, ok := l.Window(); !ok {
			t.Fatalf("evicted-slot lease %d unusable", i)
		}
	}
}

// TestLeaseRaceHammer hammers lease grant/use/renewal from several CPUs
// while a mutator cycles a churn region through protection, key, and epoch
// changes. Under -race it pins the synchronization discipline; with or
// without it, it checks that
//
//   - a reader's stable-region lease always serves the right bytes, no
//     matter how many revocations it absorbs through Renew, and
//   - churn-region accesses either go through a valid window or fall back
//     to the checked path, which must raise only well-formed faults.
func TestLeaseRaceHammer(t *testing.T) {
	as := NewAddressSpace()
	stable, err := as.MapAnon(4*PageSize, ProtRW, 0)
	if err != nil {
		t.Fatal(err)
	}
	init := as.NewCPU()
	for i := 0; i < 4*PageSize; i += 8 {
		init.WriteU64(stable+Addr(i), uint64(i))
	}
	const readers = 4
	// One churn page per reader, so window writes never race each other.
	churn, err := as.MapAnon(readers*PageSize, ProtRW, 0)
	if err != nil {
		t.Fatal(err)
	}
	key, err := as.PkeyAlloc()
	if err != nil {
		t.Fatal(err)
	}

	iters := 20000
	if testing.Short() {
		iters = 5000
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Mutator: each step is a revocation — a shootdown-bumped protection or
	// key change of the churn region.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < iters; i++ {
			switch i % 4 {
			case 0:
				if err := as.Protect(churn, readers*PageSize, ProtRead); err != nil {
					t.Errorf("protect: %v", err)
					return
				}
			case 1:
				if err := as.PkeyMprotect(churn, readers*PageSize, ProtRW, key); err != nil {
					t.Errorf("pkey_mprotect: %v", err)
					return
				}
			case 2:
				if err := as.Protect(churn, readers*PageSize, ProtRW); err != nil {
					t.Errorf("protect: %v", err)
					return
				}
			case 3:
				if err := as.PkeyMprotect(churn, readers*PageSize, ProtRW, 0); err != nil {
					t.Errorf("pkey_mprotect: %v", err)
					return
				}
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := as.NewCPU()
			c.WRPKRU(PKRUAllow(PKRUInit, key, true))
			mine := churn + Addr(r)*PageSize
			i := uint64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Stable span: revoked arbitrarily often by the epoch bumps,
				// but Renew must always succeed and the window must always
				// hold the original pattern.
				off := Addr((i * 8) % (4 * PageSize))
				sl := c.SpanLease(stable, 4*PageSize, AccessRead)
				b, ok := sl.Bytes(stable+off, 8)
				if !ok {
					t.Errorf("reader %d: stable lease refused", r)
					return
				}
				got := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
					uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
				if got != uint64(off) {
					t.Errorf("reader %d: stable word at +%#x = %d, want %d", r, off, got, off)
					return
				}
				// Churn span: use the window when the lease holds, otherwise
				// fall back checked and accept only the faults the racing
				// mapping states can produce.
				cl := c.SpanLease(mine, PageSize, AccessWrite)
				if w, ok := cl.Bytes(mine+Addr(i%PageSize), 1); ok {
					w[0] = byte(i)
				} else if err := c.Probe(mine+Addr(i%PageSize), 1, AccessWrite); err != nil {
					f := AsFault(err)
					if f == nil {
						t.Errorf("reader %d: non-fault error %v", r, err)
						return
					}
					if f.Code != CodeAccErr && f.Code != CodePkuErr {
						t.Errorf("reader %d: unexpected fault code %v", r, f.Code)
						return
					}
				}
				i++
			}
		}(r)
	}
	wg.Wait()

	// The mutator ends on PkeyMprotect(ProtRW, 0): every lease must renew
	// and serve writes again on a fresh CPU's checked view of the world.
	final := as.NewCPU()
	l := final.NewLease(churn, readers*PageSize, AccessWrite)
	if w, ok := l.Window(); !ok {
		t.Fatal("final churn lease refused")
	} else {
		w[0] = 0xEE
	}
	if got := final.ReadU8(churn); got != 0xEE {
		t.Fatalf("final churn byte = %#x, want 0xEE", got)
	}
}
