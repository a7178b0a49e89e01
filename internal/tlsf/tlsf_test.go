package tlsf

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"sdrad/internal/mem"
)

// newHeap builds a heap over a fresh simulated region of the given size.
func newHeap(t testing.TB, size uint64) (*Heap, *mem.CPU) {
	t.Helper()
	as := mem.NewAddressSpace()
	cpu := as.NewCPU()
	base, err := as.MapAnon(int(size), mem.ProtRW, 0)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Init(cpu, base, size)
	if err != nil {
		t.Fatal(err)
	}
	return h, cpu
}

func TestInitErrors(t *testing.T) {
	as := mem.NewAddressSpace()
	cpu := as.NewCPU()
	base, _ := as.MapAnon(mem.PageSize, mem.ProtRW, 0)
	if _, err := Init(cpu, base+1, mem.PageSize); !errors.Is(err, ErrBadRegion) {
		t.Errorf("misaligned Init err = %v", err)
	}
	if _, err := Init(cpu, base, 64); !errors.Is(err, ErrBadRegion) {
		t.Errorf("tiny Init err = %v", err)
	}
	if MinRegion() <= Overhead() {
		t.Error("MinRegion must exceed Overhead")
	}
}

func TestAllocFreeRoundTrip(t *testing.T) {
	h, cpu := newHeap(t, 64*1024)
	p, err := h.Alloc(cpu, 100)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(p)%8 != 0 {
		t.Error("allocation not aligned")
	}
	if got := h.UsableSize(cpu, p); got < 100 {
		t.Errorf("usable size = %d", got)
	}
	cpu.Memset(p, 0x5A, 100) // memory is writable
	if err := h.Free(cpu, p); err != nil {
		t.Fatal(err)
	}
	if err := h.Check(cpu); err != nil {
		t.Fatal(err)
	}
	if h.AllocCount() != 1 || h.FreeCount() != 1 {
		t.Errorf("counters = %d/%d", h.AllocCount(), h.FreeCount())
	}
}

func TestAllocZeroed(t *testing.T) {
	h, cpu := newHeap(t, 64*1024)
	p, err := h.Alloc(cpu, 64)
	if err != nil {
		t.Fatal(err)
	}
	cpu.Memset(p, 0xFF, 64)
	if err := h.Free(cpu, p); err != nil {
		t.Fatal(err)
	}
	q, err := h.AllocZeroed(cpu, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if cpu.ReadU8(q+mem.Addr(i)) != 0 {
			t.Fatalf("byte %d not zeroed", i)
		}
	}
}

func TestZeroAndHugeRequests(t *testing.T) {
	h, cpu := newHeap(t, 64*1024)
	p, err := h.Alloc(cpu, 0)
	if err != nil || p == 0 {
		t.Errorf("Alloc(0) = (%v, %v), want a minimal block", p, err)
	}
	if _, err := h.Alloc(cpu, maxAlloc+1); !errors.Is(err, ErrTooLarge) {
		t.Errorf("huge request err = %v", err)
	}
	if _, err := h.Alloc(cpu, 1<<30); !errors.Is(err, ErrOOM) {
		t.Errorf("oversize-for-pool err = %v", err)
	}
}

func TestBadFree(t *testing.T) {
	h, cpu := newHeap(t, 64*1024)
	p, _ := h.Alloc(cpu, 32)
	if err := h.Free(cpu, 0); !errors.Is(err, ErrBadFree) {
		t.Errorf("Free(0) err = %v", err)
	}
	if err := h.Free(cpu, 0x100); !errors.Is(err, ErrBadFree) {
		t.Errorf("Free(foreign) err = %v", err)
	}
	if err := h.Free(cpu, p+1); !errors.Is(err, ErrBadFree) {
		t.Errorf("Free(unaligned) err = %v", err)
	}
	if err := h.Free(cpu, p); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(cpu, p); !errors.Is(err, ErrBadFree) {
		t.Errorf("double free err = %v", err)
	}
}

func TestFreeAbortsOnAnOverrunNeighbour(t *testing.T) {
	// One byte written past an allocation lands in the next block's
	// header, used or free: freeing the overrun block aborts with that
	// header's address before it coalesces anything.
	for _, nextFree := range []bool{false, true} {
		h, cpu := newHeap(t, 64*1024)
		p, _ := h.Alloc(cpu, 1024)
		q, _ := h.Alloc(cpu, 64)
		_, _ = h.Alloc(cpu, 64) // keeps q off the heap's tail block
		if nextFree {
			_ = h.Free(cpu, q)
		}
		next := p + mem.Addr(h.UsableSize(cpu, p))
		cpu.WriteU8(next, 0)
		func() {
			defer func() {
				if ce, ok := recover().(*CorruptionError); !ok || ce.Addr != next {
					t.Errorf("next free %v: free of the overrun block raised %v, want an abort at 0x%x", nextFree, ce, uint64(next))
				}
			}()
			_ = h.Free(cpu, p)
		}()
	}
}

func TestCoalescing(t *testing.T) {
	h, cpu := newHeap(t, 64*1024)
	// Allocate three adjacent blocks, then free in an order that
	// exercises prev-, next-, and both-side coalescing.
	a, _ := h.Alloc(cpu, 256)
	b, _ := h.Alloc(cpu, 256)
	c, _ := h.Alloc(cpu, 256)
	if err := h.Free(cpu, a); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(cpu, c); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(cpu, b); err != nil { // merges with both neighbours
		t.Fatal(err)
	}
	if err := h.Check(cpu); err != nil {
		t.Fatal(err)
	}
	_, _, usedBlocks, freeBlocks := h.Usage(cpu)
	if usedBlocks != 0 || freeBlocks != 1 {
		t.Errorf("after full free: %d used, %d free blocks, want 0/1", usedBlocks, freeBlocks)
	}
}

func TestExhaustionAndReuse(t *testing.T) {
	h, cpu := newHeap(t, 32*1024)
	var ptrs []mem.Addr
	for {
		p, err := h.Alloc(cpu, 512)
		if err != nil {
			if !errors.Is(err, ErrOOM) {
				t.Fatalf("unexpected err %v", err)
			}
			break
		}
		ptrs = append(ptrs, p)
	}
	if len(ptrs) < 10 {
		t.Fatalf("only %d allocations before OOM", len(ptrs))
	}
	for _, p := range ptrs {
		if err := h.Free(cpu, p); err != nil {
			t.Fatal(err)
		}
	}
	// After freeing everything the full capacity is available again.
	ptrs2 := 0
	for {
		_, err := h.Alloc(cpu, 512)
		if err != nil {
			break
		}
		ptrs2++
	}
	if ptrs2 != len(ptrs) {
		t.Errorf("reuse capacity %d != original %d (fragmentation after full free)", ptrs2, len(ptrs))
	}
}

func TestAddRegion(t *testing.T) {
	as := mem.NewAddressSpace()
	cpu := as.NewCPU()
	b1, _ := as.MapAnon(16*1024, mem.ProtRW, 0)
	h, err := Init(cpu, b1, 16*1024)
	if err != nil {
		t.Fatal(err)
	}
	// Exhaust, then grow.
	var err2 error
	for err2 == nil {
		_, err2 = h.Alloc(cpu, 1024)
	}
	b2, _ := as.MapAnon(16*1024, mem.ProtRW, 0)
	if err := h.AddRegion(cpu, b2, 16*1024); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Alloc(cpu, 1024); err != nil {
		t.Errorf("alloc after AddRegion: %v", err)
	}
	if got := len(h.Regions()); got != 2 {
		t.Errorf("regions = %d", got)
	}
	if err := h.Check(cpu); err != nil {
		t.Fatal(err)
	}
	if err := h.AddRegion(cpu, b2+1, 4096); !errors.Is(err, ErrBadRegion) {
		t.Errorf("misaligned AddRegion err = %v", err)
	}
}

func TestMergeAdoptsChildBlocks(t *testing.T) {
	as := mem.NewAddressSpace()
	cpu := as.NewCPU()
	pb, _ := as.MapAnon(32*1024, mem.ProtRW, 0)
	parent, err := Init(cpu, pb, 32*1024)
	if err != nil {
		t.Fatal(err)
	}
	cb, _ := as.MapAnon(32*1024, mem.ProtRW, 0)
	child, err := Init(cpu, cb, 32*1024)
	if err != nil {
		t.Fatal(err)
	}

	live, _ := child.Alloc(cpu, 128)
	cpu.Memset(live, 0x77, 128)
	dead, _ := child.Alloc(cpu, 256)
	if err := child.Free(cpu, dead); err != nil {
		t.Fatal(err)
	}

	if err := parent.Merge(cpu, child); err != nil {
		t.Fatal(err)
	}
	// Child is dead.
	if _, err := child.Alloc(cpu, 8); !errors.Is(err, ErrMergedHeap) {
		t.Errorf("child alloc after merge err = %v", err)
	}
	if err := child.Free(cpu, live); !errors.Is(err, ErrMergedHeap) {
		t.Errorf("child free after merge err = %v", err)
	}
	// The live allocation survived and is now freeable through the parent.
	if got := cpu.ReadU8(live + 127); got != 0x77 {
		t.Errorf("live data corrupted by merge: %#x", got)
	}
	if err := parent.Free(cpu, live); err != nil {
		t.Errorf("freeing adopted block: %v", err)
	}
	if err := parent.Check(cpu); err != nil {
		t.Fatal(err)
	}
	// Parent can allocate out of adopted space: exhaust well past its own
	// region's capacity.
	total := 0
	for {
		_, err := parent.Alloc(cpu, 1024)
		if err != nil {
			break
		}
		total++
	}
	if total < 40 { // ~56 KiB of combined capacity / 1 KiB
		t.Errorf("combined capacity after merge too small: %d KiB", total)
	}
}

func TestMergeOfMergedHeapFails(t *testing.T) {
	as := mem.NewAddressSpace()
	cpu := as.NewCPU()
	mk := func() *Heap {
		b, _ := as.MapAnon(16*1024, mem.ProtRW, 0)
		h, err := Init(cpu, b, 16*1024)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	a, b, c := mk(), mk(), mk()
	if err := a.Merge(cpu, b); err != nil {
		t.Fatal(err)
	}
	if err := c.Merge(cpu, b); !errors.Is(err, ErrMergedHeap) {
		t.Errorf("re-merge err = %v", err)
	}
	if err := b.Merge(cpu, c); !errors.Is(err, ErrMergedHeap) {
		t.Errorf("merged-heap merge err = %v", err)
	}
	if err := b.Check(cpu); !errors.Is(err, ErrMergedHeap) {
		t.Errorf("merged-heap check err = %v", err)
	}
}

func TestWalkAndUsage(t *testing.T) {
	h, cpu := newHeap(t, 64*1024)
	p1, _ := h.Alloc(cpu, 100)
	p2, _ := h.Alloc(cpu, 200)
	_ = p2
	used, free, usedBlocks, freeBlocks := h.Usage(cpu)
	if usedBlocks != 2 || freeBlocks != 1 {
		t.Errorf("blocks = %d used / %d free", usedBlocks, freeBlocks)
	}
	if used < 300 || free == 0 {
		t.Errorf("usage = %d used / %d free bytes", used, free)
	}
	// Early-terminating walk.
	visits := 0
	h.Walk(cpu, func(BlockInfo) bool {
		visits++
		return false
	})
	if visits != 1 {
		t.Errorf("early-stop walk visited %d blocks", visits)
	}
	_ = p1
}

func TestMappingMonotonicity(t *testing.T) {
	// Classes must be monotonically non-decreasing in size.
	prevFL, prevSL := -1, -1
	for size := uint64(minBlockSize); size < 1<<20; size += 8 {
		fl, sl := mappingInsert(size)
		if fl < prevFL || (fl == prevFL && sl < prevSL) {
			t.Fatalf("mapping not monotonic at %d: (%d,%d) after (%d,%d)", size, fl, sl, prevFL, prevSL)
		}
		if fl >= flIndexCount || sl >= slIndexCount {
			t.Fatalf("mapping out of range at %d: (%d,%d)", size, fl, sl)
		}
		prevFL, prevSL = fl, sl
	}
}

func TestMappingSearchRoundsUp(t *testing.T) {
	// Any block in the class found by mappingSearch(n) must be >= n.
	// Verify via the class lower bound: mappingInsert of the class start.
	for _, n := range []uint64{24, 100, 255, 256, 257, 300, 1000, 4096, 65536, 1 << 20} {
		fl, sl := mappingSearch(n)
		// Lower bound of class (fl, sl):
		var lo uint64
		if fl == 0 {
			lo = uint64(sl) * (smallBlockSize / slIndexCount)
		} else {
			base := uint64(1) << uint(fl+flIndexShift-1)
			lo = base + uint64(sl)*(base/slIndexCount)
		}
		if lo < n && fl != 0 {
			t.Errorf("mappingSearch(%d) class (%d,%d) has lower bound %d < request", n, fl, sl, lo)
		}
	}
}

// Reference-model fuzz: random alloc/free interleavings compared against a
// Go map model; invariants checked continuously.
func TestRandomizedAgainstModel(t *testing.T) {
	h, cpu := newHeap(t, 256*1024)
	rng := rand.New(rand.NewSource(42))
	type allocation struct {
		ptr  mem.Addr
		size int
		tag  byte
	}
	var live []allocation
	for i := 0; i < 3000; i++ {
		if rng.Intn(2) == 0 || len(live) == 0 {
			size := 1 + rng.Intn(2000)
			p, err := h.Alloc(cpu, uint64(size))
			if errors.Is(err, ErrOOM) {
				// Free half of everything and retry later.
				for j := 0; j < len(live); j += 2 {
					if err := h.Free(cpu, live[j].ptr); err != nil {
						t.Fatalf("iter %d: free: %v", i, err)
					}
				}
				nl := live[:0]
				for j := 1; j < len(live); j += 2 {
					nl = append(nl, live[j])
				}
				live = nl
				continue
			}
			if err != nil {
				t.Fatalf("iter %d: alloc(%d): %v", i, size, err)
			}
			tag := byte(i)
			cpu.Memset(p, tag, size)
			live = append(live, allocation{p, size, tag})
		} else {
			k := rng.Intn(len(live))
			a := live[k]
			// Contents must be intact (no allocator scribbling).
			if got := cpu.ReadU8(a.ptr + mem.Addr(a.size-1)); got != a.tag {
				t.Fatalf("iter %d: block tail corrupted: %#x != %#x", i, got, a.tag)
			}
			if got := cpu.ReadU8(a.ptr); got != a.tag {
				t.Fatalf("iter %d: block head corrupted", i)
			}
			if err := h.Free(cpu, a.ptr); err != nil {
				t.Fatalf("iter %d: free: %v", i, err)
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if i%250 == 0 {
			if err := h.Check(cpu); err != nil {
				t.Fatalf("iter %d: %v", i, err)
			}
		}
	}
	if err := h.Check(cpu); err != nil {
		t.Fatal(err)
	}
}

// Property: allocations never overlap each other.
func TestQuickNoOverlap(t *testing.T) {
	prop := func(sizes []uint16) bool {
		h, cpu := newHeap(t, 512*1024)
		type span struct{ lo, hi uint64 }
		var spans []span
		for _, s := range sizes {
			n := uint64(s%4096 + 1)
			p, err := h.Alloc(cpu, n)
			if errors.Is(err, ErrOOM) {
				break
			}
			if err != nil {
				return false
			}
			lo, hi := uint64(p), uint64(p)+n
			for _, sp := range spans {
				if lo < sp.hi && sp.lo < hi {
					return false
				}
			}
			spans = append(spans, span{lo, hi})
		}
		return h.Check(cpu) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: free returns all bytes — usable free space after freeing all
// allocations equals the initial free space.
func TestQuickConservation(t *testing.T) {
	prop := func(sizes []uint16) bool {
		h, cpu := newHeap(t, 512*1024)
		_, free0, _, _ := h.Usage(cpu)
		var ptrs []mem.Addr
		for _, s := range sizes {
			p, err := h.Alloc(cpu, uint64(s%4096+1))
			if err != nil {
				break
			}
			ptrs = append(ptrs, p)
		}
		for _, p := range ptrs {
			if h.Free(cpu, p) != nil {
				return false
			}
		}
		_, free1, _, freeBlocks := h.Usage(cpu)
		return free1 == free0 && freeBlocks == 1 && h.Check(cpu) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAllocFree(b *testing.B) {
	h, cpu := newHeap(b, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := h.Alloc(cpu, 128)
		if err != nil {
			b.Fatal(err)
		}
		if err := h.Free(cpu, p); err != nil {
			b.Fatal(err)
		}
	}
}
