package galloc

import (
	"errors"
	"math/rand"
	"testing"

	"sdrad/internal/mem"
)

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
	if _, err := Init(cpu, base+4, mem.PageSize); !errors.Is(err, ErrBadRegion) {
		t.Errorf("misaligned err = %v", err)
	}
	if _, err := Init(cpu, base, 8); !errors.Is(err, ErrBadRegion) {
		t.Errorf("tiny err = %v", err)
	}
}

func TestRoundTrip(t *testing.T) {
	h, cpu := newHeap(t, 64*1024)
	p, err := h.Alloc(cpu, 100)
	if err != nil {
		t.Fatal(err)
	}
	cpu.Memset(p, 0xEE, 100)
	if err := h.Free(cpu, p); err != nil {
		t.Fatal(err)
	}
	if h.AllocCount() != 1 || h.FreeCount() != 1 {
		t.Error("counters wrong")
	}
}

func TestBadFree(t *testing.T) {
	h, cpu := newHeap(t, 64*1024)
	p, _ := h.Alloc(cpu, 32)
	if err := h.Free(cpu, 0); !errors.Is(err, ErrBadFree) {
		t.Error("Free(0) accepted")
	}
	if err := h.Free(cpu, p+3); !errors.Is(err, ErrBadFree) {
		t.Error("unaligned free accepted")
	}
	if err := h.Free(cpu, 0xFFFF0008); !errors.Is(err, ErrBadFree) {
		t.Error("foreign free accepted")
	}
	if err := h.Free(cpu, p); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(cpu, p); !errors.Is(err, ErrBadFree) {
		t.Error("double free accepted")
	}
}

func TestCoalescingRestoresCapacity(t *testing.T) {
	h, cpu := newHeap(t, 64*1024)
	free0 := h.FreeBytes(cpu)
	var ptrs []mem.Addr
	for i := 0; i < 20; i++ {
		p, err := h.Alloc(cpu, 512)
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	// Free in a scattered order to exercise all coalescing paths.
	order := []int{1, 3, 2, 0, 19, 17, 18, 5, 4, 6, 10, 8, 9, 7, 12, 14, 13, 11, 16, 15}
	for _, i := range order {
		if err := h.Free(cpu, ptrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.FreeBytes(cpu); got != free0 {
		t.Errorf("free bytes after full free = %d, want %d", got, free0)
	}
}

func TestOOM(t *testing.T) {
	h, cpu := newHeap(t, 4096)
	if _, err := h.Alloc(cpu, 1<<20); !errors.Is(err, ErrOOM) {
		t.Errorf("err = %v", err)
	}
}

// TestAddRegionGrowsTheHeap: a full heap takes a request again once given
// a region of RegionFor its size (and not one word less), frees in either
// region return there, and the free list stays address-ordered whichever
// end the new region lands at.
func TestAddRegionGrowsTheHeap(t *testing.T) {
	for _, n := range []uint64{1, 100, 4096, 1 << 20} {
		for _, size := range []uint64{RegionFor(n), RegionFor(n) - 8} {
			as := mem.NewAddressSpace()
			cpu := as.NewCPU()
			low, _ := as.MapAnon(int(size), mem.ProtRW, 0)
			high, _ := as.MapAnon(4096, mem.ProtRW, 0)
			h, err := Init(cpu, high, 4096)
			if err != nil {
				t.Fatal(err)
			}
			first, err := h.Alloc(cpu, 4096-headerOverhead)
			if err != nil {
				t.Fatal(err)
			}
			if err = h.AddRegion(cpu, low, size); err == nil {
				var p mem.Addr
				if p, err = h.Alloc(cpu, n); err == nil {
					if p < low || p >= high {
						t.Errorf("Alloc(%d) = 0x%x, outside the added region", n, uint64(p))
					}
					if err := h.Free(cpu, p); err != nil {
						t.Errorf("Free in the added region: %v", err)
					}
				}
			}
			if fits := size == RegionFor(n); fits != (err == nil) {
				t.Errorf("Alloc(%d) in a %d-byte region (RegionFor %d): %v", n, size, RegionFor(n), err)
			}
			if err := h.Free(cpu, first); err != nil {
				t.Errorf("Free in the first region: %v", err)
			}
			if got, want := h.FreeBytes(cpu), size-headerOverhead+4096-headerOverhead; err == nil && got != want {
				t.Errorf("free bytes after freeing both = %d, want %d", got, want)
			}
		}
	}
}

func TestRandomizedUsage(t *testing.T) {
	h, cpu := newHeap(t, 256*1024)
	rng := rand.New(rand.NewSource(7))
	type alloc struct {
		p   mem.Addr
		n   int
		tag byte
	}
	var live []alloc
	injected := errors.New("injected")
	for i := 0; i < 2000; i++ {
		if rng.Intn(2) == 0 || len(live) == 0 {
			n := 1 + rng.Intn(1500)
			if i%7 == 0 {
				// An injected failure is an error and allocates nothing;
				// the live blocks are checked as the loop frees them.
				allocs := h.AllocCount()
				h.SetAllocHook(func(uint64) error { return injected })
				p, err := h.Alloc(cpu, uint64(n))
				h.SetAllocHook(nil)
				if !errors.Is(err, injected) || p != 0 || h.AllocCount() != allocs {
					t.Fatalf("iter %d: injected failure gave %#x, %v", i, uint64(p), err)
				}
				continue
			}
			p, err := h.Alloc(cpu, uint64(n))
			if errors.Is(err, ErrOOM) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			tag := byte(i)
			cpu.Memset(p, tag, n)
			live = append(live, alloc{p, n, tag})
		} else {
			k := rng.Intn(len(live))
			a := live[k]
			if cpu.ReadU8(a.p) != a.tag || cpu.ReadU8(a.p+mem.Addr(a.n-1)) != a.tag {
				t.Fatalf("iter %d: corruption in live block", i)
			}
			if err := h.Free(cpu, a.p); err != nil {
				t.Fatal(err)
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	for _, a := range live {
		if err := h.Free(cpu, a.p); err != nil {
			t.Fatal(err)
		}
	}
	if n := h.AllocCount() - h.FreeCount(); n != 0 {
		t.Errorf("%d allocations never freed", n)
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
