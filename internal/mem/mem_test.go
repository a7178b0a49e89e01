package mem

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

// mustMap maps length bytes at an anonymous address and fails the test on
// error.
func mustMap(t *testing.T, as *AddressSpace, length int, prot Prot, pkey int) Addr {
	t.Helper()
	a, err := as.MapAnon(length, prot, pkey)
	if err != nil {
		t.Fatalf("MapAnon(%d, %v, %d): %v", length, prot, pkey, err)
	}
	return a
}

// catchFault runs f and returns the *Fault it panicked with, or nil.
func catchFault(f func()) (fault *Fault) {
	defer func() {
		if r := recover(); r != nil {
			if ft := AsFault(r); ft != nil {
				fault = ft
				return
			}
			panic(r)
		}
	}()
	f()
	return nil
}

func TestAddrHelpers(t *testing.T) {
	a := Addr(0x12345)
	if got := a.PageNum(); got != 0x12 {
		t.Errorf("PageNum = %#x, want 0x12", got)
	}
	if got := a.PageOff(); got != 0x345 {
		t.Errorf("PageOff = %#x, want 0x345", got)
	}
	if a.PageAligned() {
		t.Error("0x12345 should not be page aligned")
	}
	if !Addr(0x2000).PageAligned() {
		t.Error("0x2000 should be page aligned")
	}
}

func TestProtString(t *testing.T) {
	cases := []struct {
		p    Prot
		want string
	}{
		{ProtNone, "---"},
		{ProtRead, "r--"},
		{ProtRW, "rw-"},
		{ProtRX, "r-x"},
		{ProtRead | ProtWrite | ProtExec, "rwx"},
	}
	for _, c := range cases {
		if got := c.p.String(); got != c.want {
			t.Errorf("Prot(%d).String() = %q, want %q", c.p, got, c.want)
		}
	}
}

func TestMapAndRoundTrip(t *testing.T) {
	as := NewAddressSpace()
	cpu := as.NewCPU()
	a := mustMap(t, as, 3*PageSize, ProtRW, 0)

	data := []byte("hello, simulated world")
	cpu.Write(a+100, data)
	got := cpu.ReadBytes(a+100, len(data))
	if string(got) != string(data) {
		t.Errorf("round trip = %q, want %q", got, data)
	}
}

func TestCrossPageAccess(t *testing.T) {
	as := NewAddressSpace()
	cpu := as.NewCPU()
	a := mustMap(t, as, 2*PageSize, ProtRW, 0)

	// A write spanning the page boundary must land contiguously.
	data := make([]byte, 512)
	for i := range data {
		data[i] = byte(i)
	}
	at := a + Addr(PageSize-256)
	cpu.Write(at, data)
	got := cpu.ReadBytes(at, len(data))
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], data[i])
		}
	}
}

func TestIntegerAccessors(t *testing.T) {
	as := NewAddressSpace()
	cpu := as.NewCPU()
	a := mustMap(t, as, PageSize, ProtRW, 0)

	cpu.WriteU64(a+16, 0x0123456789ABCDEF)
	if got := cpu.ReadU64(a + 16); got != 0x0123456789ABCDEF {
		t.Errorf("U64 = %#x", got)
	}
	cpu.WriteAddr(a+24, a)
	if got := cpu.ReadAddr(a + 24); got != a {
		t.Errorf("Addr = %#x, want %#x", got, a)
	}
	// Little-endian byte order.
	cpu.WriteU64(a+32, 0x0807060504030201)
	if b := cpu.ReadBytes(a+32, 8); !bytes.Equal(b, []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Errorf("LE layout = %v", b)
	}
}

func TestUnmappedAccessFaults(t *testing.T) {
	as := NewAddressSpace()
	cpu := as.NewCPU()
	f := catchFault(func() { cpu.ReadU8(0xdead0000) })
	if f == nil {
		t.Fatal("expected fault")
	}
	if f.Code != CodeMapErr {
		t.Errorf("code = %v, want SEGV_MAPERR", f.Code)
	}
	if f.Kind != AccessRead {
		t.Errorf("kind = %v, want read", f.Kind)
	}
	if f.Addr != 0xdead0000 {
		t.Errorf("addr = %#x", uint64(f.Addr))
	}
}

func TestProtectionFaults(t *testing.T) {
	as := NewAddressSpace()
	cpu := as.NewCPU()
	ro := mustMap(t, as, PageSize, ProtRead, 0)

	if f := catchFault(func() { _ = cpu.ReadU8(ro) }); f != nil {
		t.Fatalf("read of read-only page faulted: %v", f)
	}
	f := catchFault(func() { cpu.WriteU8(ro, 1) })
	if f == nil {
		t.Fatal("expected write fault on read-only page")
	}
	if f.Code != CodeAccErr {
		t.Errorf("code = %v, want SEGV_ACCERR", f.Code)
	}

	none := mustMap(t, as, PageSize, ProtNone, 0)
	f = catchFault(func() { _ = cpu.ReadU8(none) })
	if f == nil || f.Code != CodeAccErr {
		t.Errorf("PROT_NONE read fault = %v, want SEGV_ACCERR", f)
	}
}

func TestWXEnforcement(t *testing.T) {
	as := NewAddressSpace()
	if _, err := as.MapAnon(PageSize, ProtWrite|ProtExec, 0); !errors.Is(err, ErrWXViolation) {
		t.Errorf("W+X MapAnon err = %v, want ErrWXViolation", err)
	}
	a := mustMap(t, as, PageSize, ProtRW, 0)
	if err := as.Protect(a, PageSize, ProtRead|ProtWrite|ProtExec); !errors.Is(err, ErrWXViolation) {
		t.Errorf("W+X Protect err = %v, want ErrWXViolation", err)
	}
	if err := as.Protect(a, PageSize, ProtRX); err != nil {
		t.Errorf("RX Protect err = %v", err)
	}
}

func TestPkeyAllocFree(t *testing.T) {
	as := NewAddressSpace()
	got := make(map[int]bool)
	for i := 0; i < NumKeys-1; i++ {
		k, err := as.PkeyAlloc()
		if err != nil {
			t.Fatalf("PkeyAlloc #%d: %v", i, err)
		}
		if k <= 0 || k >= NumKeys {
			t.Fatalf("key %d out of range", k)
		}
		if got[k] {
			t.Fatalf("key %d allocated twice", k)
		}
		got[k] = true
	}
	if _, err := as.PkeyAlloc(); !errors.Is(err, ErrNoKeys) {
		t.Errorf("16th alloc err = %v, want ErrNoKeys", err)
	}
	if err := as.PkeyFree(3); err != nil {
		t.Errorf("PkeyFree(3): %v", err)
	}
	k, err := as.PkeyAlloc()
	if err != nil || k != 3 {
		t.Errorf("realloc = (%d, %v), want (3, nil)", k, err)
	}
	if err := as.PkeyFree(0); !errors.Is(err, ErrBadKey) {
		t.Errorf("freeing key 0 err = %v, want ErrBadKey", err)
	}
	if err := as.PkeyFree(99); !errors.Is(err, ErrBadKey) {
		t.Errorf("freeing key 99 err = %v, want ErrBadKey", err)
	}
}

func TestPkeyFreeInUse(t *testing.T) {
	as := NewAddressSpace()
	k, _ := as.PkeyAlloc()
	a := mustMap(t, as, PageSize, ProtRW, k)
	if err := as.PkeyFree(k); !errors.Is(err, ErrKeyInUse) {
		t.Errorf("free of in-use key = %v, want ErrKeyInUse", err)
	}
	if err := as.Unmap(a, PageSize); err != nil {
		t.Fatal(err)
	}
	if err := as.PkeyFree(k); err != nil {
		t.Errorf("free after unmap: %v", err)
	}
}

func TestPKUEnforcement(t *testing.T) {
	as := NewAddressSpace()
	cpu := as.NewCPU()
	k, _ := as.PkeyAlloc()
	a := mustMap(t, as, PageSize, ProtRW, k)

	// Default PKRU denies everything but key 0.
	f := catchFault(func() { _ = cpu.ReadU8(a) })
	if f == nil || f.Code != CodePkuErr {
		t.Fatalf("read fault = %v, want SEGV_PKUERR", f)
	}
	if f.PKey != k {
		t.Errorf("fault pkey = %d, want %d", f.PKey, k)
	}

	// Read-only grant: reads pass, writes fault.
	cpu.WRPKRU(PKRUAllow(PKRUInit, k, false))
	if f := catchFault(func() { _ = cpu.ReadU8(a) }); f != nil {
		t.Fatalf("read with RO grant faulted: %v", f)
	}
	f = catchFault(func() { cpu.WriteU8(a, 1) })
	if f == nil || f.Code != CodePkuErr {
		t.Fatalf("write fault = %v, want SEGV_PKUERR", f)
	}

	// Full grant: all accesses pass.
	cpu.WRPKRU(PKRUAllow(PKRUInit, k, true))
	if f := catchFault(func() { cpu.WriteU8(a, 1) }); f != nil {
		t.Fatalf("write with RW grant faulted: %v", f)
	}

	// Revocation applies immediately (TLB does not cache PKRU decisions).
	cpu.WRPKRU(PKRUDeny(cpu.PKRU(), k))
	if f := catchFault(func() { _ = cpu.ReadU8(a) }); f == nil {
		t.Fatal("read after deny should fault")
	}
}

func TestPKRUIsPerCPU(t *testing.T) {
	as := NewAddressSpace()
	k, _ := as.PkeyAlloc()
	a := mustMap(t, as, PageSize, ProtRW, k)

	granted := as.NewCPU()
	granted.WRPKRU(PKRUAllow(PKRUInit, k, true))
	granted.WriteU8(a, 42)

	denied := as.NewCPU()
	if f := catchFault(func() { _ = denied.ReadU8(a) }); f == nil {
		t.Fatal("second CPU inherited rights it was never granted")
	}
	if got := granted.ReadU8(a); got != 42 {
		t.Errorf("granted CPU read %d, want 42", got)
	}
}

func TestPKRUHelpers(t *testing.T) {
	if PKRUInit != PKRUAllow(PKRUDenyAll, 0, true) {
		t.Error("PKRUInit should equal deny-all with key0 rw")
	}
	v := PKRUAllow(PKRUDenyAll, 5, false)
	ad, wd := PKRURights(v, 5)
	if ad || !wd {
		t.Errorf("key5 rights = ad=%v wd=%v, want ad=false wd=true", ad, wd)
	}
	ad, _ = PKRURights(v, 4)
	if !ad {
		t.Error("key4 should remain access-disabled")
	}
	v = PKRUDeny(v, 5)
	ad, _ = PKRURights(v, 5)
	if !ad {
		t.Error("PKRUDeny did not set AD")
	}
}

func TestPkeyMprotectRetag(t *testing.T) {
	as := NewAddressSpace()
	cpu := as.NewCPU()
	k1, _ := as.PkeyAlloc()
	k2, _ := as.PkeyAlloc()
	a := mustMap(t, as, 2*PageSize, ProtRW, k1)
	cpu.WRPKRU(PKRUAllow(PKRUInit, k1, true))
	cpu.WriteU8(a, 9)

	// Retag the first page with k2: the same CPU must lose access even
	// though its TLB may have cached the old translation.
	if err := as.PkeyMprotect(a, PageSize, ProtRW, k2); err != nil {
		t.Fatal(err)
	}
	f := catchFault(func() { _ = cpu.ReadU8(a) })
	if f == nil || f.Code != CodePkuErr || f.PKey != k2 {
		t.Fatalf("post-retag fault = %v, want PKUERR with pkey %d", f, k2)
	}
	// Second page keeps k1.
	if f := catchFault(func() { _ = cpu.ReadU8(a + PageSize) }); f != nil {
		t.Fatalf("second page faulted: %v", f)
	}
}

func TestUnmapInvalidatesTLB(t *testing.T) {
	as := NewAddressSpace()
	cpu := as.NewCPU()
	a := mustMap(t, as, PageSize, ProtRW, 0)
	cpu.WriteU8(a, 1) // populate TLB
	if err := as.Unmap(a, PageSize); err != nil {
		t.Fatal(err)
	}
	f := catchFault(func() { _ = cpu.ReadU8(a) })
	if f == nil || f.Code != CodeMapErr {
		t.Fatalf("post-unmap access = %v, want SEGV_MAPERR", f)
	}
}

func TestMapErrors(t *testing.T) {
	as := NewAddressSpace()
	if err := as.Map(Addr(123), PageSize, ProtRW, 0); !errors.Is(err, ErrAlignment) {
		t.Errorf("unaligned Map err = %v", err)
	}
	if err := as.Map(Addr(0x4000), 0, ProtRW, 0); !errors.Is(err, ErrBadLength) {
		t.Errorf("zero-length Map err = %v", err)
	}
	if err := as.Map(Addr(0x4000), PageSize, ProtRW, 7); !errors.Is(err, ErrBadKey) {
		t.Errorf("unallocated-key Map err = %v", err)
	}
	if err := as.Map(Addr(0x4000), PageSize, ProtRW, -1); !errors.Is(err, ErrBadKey) {
		t.Errorf("negative-key Map err = %v", err)
	}
	if err := as.Map(Addr(0x4000), PageSize, ProtRW, 0); err != nil {
		t.Fatal(err)
	}
	if err := as.Map(Addr(0x4000), PageSize, ProtRW, 0); !errors.Is(err, ErrOverlap) {
		t.Errorf("overlapping Map err = %v", err)
	}
	if err := as.Unmap(Addr(0x8000), PageSize); !errors.Is(err, ErrUnmapped) {
		t.Errorf("Unmap of hole err = %v", err)
	}
	if err := as.Protect(Addr(0x8000), PageSize, ProtRead); !errors.Is(err, ErrUnmapped) {
		t.Errorf("Protect of hole err = %v", err)
	}
}

func TestGuardGapBetweenMappings(t *testing.T) {
	as := NewAddressSpace()
	cpu := as.NewCPU()
	a := mustMap(t, as, PageSize, ProtRW, 0)
	b := mustMap(t, as, PageSize, ProtRW, 0)
	if b <= a+PageSize {
		t.Fatalf("no gap between regions: a=%#x b=%#x", uint64(a), uint64(b))
	}
	// An overflow running off the end of region a hits unmapped memory.
	f := catchFault(func() { cpu.WriteU8(a+PageSize, 0xFF) })
	if f == nil || f.Code != CodeMapErr {
		t.Fatalf("overflow into gap = %v, want SEGV_MAPERR", f)
	}
}

func TestMappedAndPageInfo(t *testing.T) {
	as := NewAddressSpace()
	k, _ := as.PkeyAlloc()
	a := mustMap(t, as, 2*PageSize, ProtRead, k)
	if !as.Mapped(a, 2*PageSize) {
		t.Error("range should be mapped")
	}
	if as.Mapped(a, 3*PageSize) {
		t.Error("range extending past mapping reported mapped")
	}
	if as.Mapped(a, 0) {
		t.Error("zero-length range reported mapped")
	}
	prot, pkey, ok := as.PageInfo(a + PageSize + 17)
	if !ok || prot != ProtRead || pkey != k {
		t.Errorf("PageInfo = (%v, %d, %v)", prot, pkey, ok)
	}
	if _, _, ok := as.PageInfo(0xffff0000); ok {
		t.Error("PageInfo of hole reported ok")
	}
}

func TestKernelAccess(t *testing.T) {
	as := NewAddressSpace()
	k, _ := as.PkeyAlloc()
	a := mustMap(t, as, PageSize, ProtNone, k) // no user access at all
	want := []byte{1, 2, 3, 4}
	if err := as.KernelWrite(a, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	if err := as.KernelRead(a, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("kernel round trip = %v", got)
		}
	}
	if err := as.KernelRead(0xeeee0000, got); !errors.Is(err, ErrUnmapped) {
		t.Errorf("kernel read of hole err = %v", err)
	}
	if err := as.KernelWrite(0xeeee0000, want); !errors.Is(err, ErrUnmapped) {
		t.Errorf("kernel write of hole err = %v", err)
	}
}

func TestMemsetAndCopy(t *testing.T) {
	as := NewAddressSpace()
	cpu := as.NewCPU()
	a := mustMap(t, as, 2*PageSize, ProtRW, 0)
	cpu.Memset(a, 0xAB, PageSize+123)
	if got := cpu.ReadU8(a + PageSize + 122); got != 0xAB {
		t.Errorf("memset tail byte = %#x", got)
	}
	if got := cpu.ReadU8(a + PageSize + 123); got != 0 {
		t.Errorf("byte past memset = %#x, want 0", got)
	}
	b := mustMap(t, as, PageSize, ProtRW, 0)
	cpu.Copy(b, a, 256)
	if got := cpu.ReadU8(b + 255); got != 0xAB {
		t.Errorf("copied byte = %#x", got)
	}
}

func TestProbe(t *testing.T) {
	as := NewAddressSpace()
	cpu := as.NewCPU()
	a := mustMap(t, as, PageSize, ProtRead, 0)
	if err := cpu.Probe(a, PageSize, AccessRead); err != nil {
		t.Errorf("probe read: %v", err)
	}
	err := cpu.Probe(a, PageSize, AccessWrite)
	var f *Fault
	if !errors.As(err, &f) || f.Code != CodeAccErr {
		t.Errorf("probe write err = %v, want ACCERR fault", err)
	}
	if err := cpu.Probe(a, PageSize+1, AccessRead); err == nil {
		t.Error("probe past end should fail")
	}
	if err := cpu.Probe(a, 0, AccessRead); err != nil {
		t.Errorf("zero-length probe: %v", err)
	}
}

func TestStatsCounters(t *testing.T) {
	as := NewAddressSpace()
	cpu := as.NewCPU()
	a := mustMap(t, as, PageSize, ProtRW, 0)
	before := as.Stats().Snapshot()
	cpu.Write(a, make([]byte, 100))
	cpu.Read(a, make([]byte, 40))
	cpu.WRPKRU(PKRUInit)
	d := as.Stats().Snapshot().Sub(before)
	if d.BytesWritten != 100 || d.BytesRead != 40 {
		t.Errorf("bytes = written %d read %d", d.BytesWritten, d.BytesRead)
	}
	if d.PKRUWrites != 1 {
		t.Errorf("PKRU writes = %d", d.PKRUWrites)
	}
	if d.Writes != 1 || d.Reads != 1 {
		t.Errorf("ops = %d writes %d reads", d.Writes, d.Reads)
	}
	catchFault(func() { cpu.ReadU8(0xdddd0000) })
	if got := as.Stats().Faults.Load(); got != 1 {
		t.Errorf("faults = %d", got)
	}
}

func TestMappedBytesGauge(t *testing.T) {
	as := NewAddressSpace()
	a := mustMap(t, as, 3*PageSize, ProtRW, 0)
	if got := as.Stats().MappedBytes.Load(); got != 3*PageSize {
		t.Errorf("mapped = %d", got)
	}
	if err := as.Unmap(a, PageSize); err != nil {
		t.Fatal(err)
	}
	if got := as.Stats().MappedBytes.Load(); got != 2*PageSize {
		t.Errorf("mapped after partial unmap = %d", got)
	}
}

func TestWRPKRUCostModel(t *testing.T) {
	as := NewAddressSpace(WithWRPKRUCost(10))
	cpu := as.NewCPU()
	cpu.WRPKRU(PKRUAllowAll) // must not hang or panic
	if cpu.PKRU() != PKRUAllowAll {
		t.Error("PKRU not updated under cost model")
	}
}

func TestFaultError(t *testing.T) {
	f := &Fault{Addr: 0x1000, Kind: AccessWrite, Code: CodePkuErr, PKey: 3}
	msg := f.Error()
	if msg == "" || !f.IsPKU() {
		t.Errorf("fault formatting broken: %q", msg)
	}
	var err error = f
	var out *Fault
	if !errors.As(err, &out) || out.PKey != 3 {
		t.Error("errors.As failed on Fault")
	}
	f2 := &Fault{Addr: 0x2000, Kind: AccessRead, Code: CodeMapErr}
	if f2.IsPKU() || f2.Error() == "" {
		t.Error("MAPERR fault formatting broken")
	}
	if AsFault("not a fault") != nil {
		t.Error("AsFault should return nil for foreign panics")
	}
}

// Property: writes followed by reads at arbitrary in-range offsets return
// the written data (memory behaves like memory).
func TestQuickReadWriteRoundTrip(t *testing.T) {
	as := NewAddressSpace()
	cpu := as.NewCPU()
	const regionPages = 8
	a := mustMap(t, as, regionPages*PageSize, ProtRW, 0)

	prop := func(off uint32, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		if len(data) > 4096 {
			data = data[:4096]
		}
		pos := a + Addr(off%uint32(regionPages*PageSize-len(data)))
		cpu.Write(pos, data)
		got := cpu.ReadBytes(pos, len(data))
		for i := range data {
			if got[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: PKRUAllow/PKRUDeny only affect the targeted key.
func TestQuickPKRUIsolation(t *testing.T) {
	prop := func(base uint32, key uint8, write bool) bool {
		k := int(key % NumKeys)
		v := PKRUAllow(base, k, write)
		for other := 0; other < NumKeys; other++ {
			if other == k {
				continue
			}
			ad0, wd0 := PKRURights(base, other)
			ad1, wd1 := PKRURights(v, other)
			if ad0 != ad1 || wd0 != wd1 {
				return false
			}
		}
		ad, wd := PKRURights(v, k)
		return !ad && wd == !write
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: mapping N pages then unmapping them restores the gauge.
func TestQuickMappedBytesBalance(t *testing.T) {
	prop := func(sizes []uint16) bool {
		as := NewAddressSpace()
		var addrs []Addr
		var lens []int
		for _, s := range sizes {
			n := int(s%64+1) * 64 // 64B..4KiB, sub-page sizes round up
			a, err := as.MapAnon(n, ProtRW, 0)
			if err != nil {
				return false
			}
			addrs = append(addrs, a)
			lens = append(lens, n)
		}
		for i, a := range addrs {
			if err := as.Unmap(a, lens[i]); err != nil {
				return false
			}
		}
		return as.Stats().MappedBytes.Load() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAccessKindString(t *testing.T) {
	if AccessRead.String() != "read" || AccessWrite.String() != "write" ||
		AccessExec.String() != "exec" || AccessKind(99).String() != "unknown" {
		t.Error("AccessKind.String broken")
	}
}

func TestFaultCodeString(t *testing.T) {
	if CodeMapErr.String() != "SEGV_MAPERR" || CodeAccErr.String() != "SEGV_ACCERR" ||
		CodePkuErr.String() != "SEGV_PKUERR" {
		t.Error("FaultCode.String broken")
	}
	if FaultCode(9).String() == "" {
		t.Error("unknown code should still format")
	}
}

func TestCPUString(t *testing.T) {
	as := NewAddressSpace()
	cpu := as.NewCPU()
	if cpu.String() == "" {
		t.Error("CPU.String empty")
	}
}
