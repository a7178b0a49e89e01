// Package galloc is a simple first-fit free-list allocator over the
// simulated address space. It stands in for the glibc GNU allocator in the
// paper's "unmodified" baseline application variants: the evaluation
// compares vanilla builds (glibc malloc), TLSF builds, and SDRaD builds,
// and concludes TLSF costs <1% versus glibc. galloc is deliberately a
// different algorithm from internal/tlsf (address-ordered first fit with
// immediate coalescing, like a teaching dlmalloc) so that the
// TLSF-vs-default-allocator comparison is meaningful in this repository
// too.
package galloc

import (
	"errors"

	"sdrad/internal/mem"
)

// Block header layout at header address H:
//
//	H+0: size | flags (bit0 = free)
//	H+8: user data, or while free: next-free pointer
//
// Free blocks form a single address-ordered list; coalescing walks it.
const (
	headerOverhead = 8
	minBlock       = 16
	flagFree       = 1
)

// Errors reported by the allocator.
var (
	ErrOOM       = errors.New("galloc: out of memory")
	ErrBadFree   = errors.New("galloc: invalid free")
	ErrBadRegion = errors.New("galloc: region too small or misaligned")
)

// Heap is a first-fit allocator instance over one or more regions.
type Heap struct {
	regions []region

	// freeHead is the address of the first free block header (0 = none),
	// maintained in address order. Kept Go-side for simplicity; block
	// headers live in simulated memory.
	freeHead mem.Addr

	allocs int64
	frees  int64

	// allocHook, when non-nil, may veto allocations; see SetAllocHook.
	allocHook func(size uint64) error
}

// SetAllocHook installs (or, with nil, removes) an allocation hook
// consulted at the top of every Alloc; a non-nil return fails the
// allocation with that error. Used by the chaos engine to inject
// allocation failures into baseline (non-TLSF) builds.
func (h *Heap) SetAllocHook(fn func(size uint64) error) { h.allocHook = fn }

type region struct {
	base mem.Addr
	size uint64
}

// Init creates a heap covering [base, base+size).
func Init(c *mem.CPU, base mem.Addr, size uint64) (*Heap, error) {
	h := &Heap{}
	if err := h.AddRegion(c, base, size); err != nil {
		return nil, err
	}
	return h, nil
}

// AddRegion donates [base, base+size) to the heap as one more free block,
// linked into the address-ordered free list.
func (h *Heap) AddRegion(c *mem.CPU, base mem.Addr, size uint64) error {
	if uint64(base)%8 != 0 || size < headerOverhead+minBlock {
		return ErrBadRegion
	}
	size &^= 7
	var prev mem.Addr
	next := h.freeHead
	for next != 0 && next < base {
		prev = next
		next = nextFree(c, next)
	}
	c.WriteU64(base, (size-headerOverhead)|flagFree)
	c.WriteAddr(base+headerOverhead, next)
	if prev == 0 {
		h.freeHead = base
	} else {
		c.WriteAddr(prev+headerOverhead, base)
	}
	h.regions = append(h.regions, region{base, size})
	return nil
}

// RegionFor returns the smallest region AddRegion can be given for an
// Alloc of size bytes to succeed when no other block can serve it.
func RegionFor(size uint64) uint64 {
	return max((size+7)&^7, minBlock) + headerOverhead
}

func blockSize(c *mem.CPU, b mem.Addr) uint64 { return c.ReadU64(b) &^ 7 }

func isFree(c *mem.CPU, b mem.Addr) bool { return c.ReadU64(b)&flagFree != 0 }

func nextFree(c *mem.CPU, b mem.Addr) mem.Addr { return c.ReadAddr(b + headerOverhead) }

// Alloc returns a block of at least size bytes using first fit.
func (h *Heap) Alloc(c *mem.CPU, size uint64) (mem.Addr, error) {
	if h.allocHook != nil {
		if err := h.allocHook(size); err != nil {
			return 0, err
		}
	}
	if size == 0 {
		size = 1
	}
	size = (size + 7) &^ uint64(7)
	if size < minBlock {
		size = minBlock
	}
	var prev mem.Addr
	for b := h.freeHead; b != 0; b = nextFree(c, b) {
		bs := blockSize(c, b)
		if bs >= size {
			next := nextFree(c, b)
			if bs >= size+headerOverhead+minBlock {
				// Split: remainder stays on the free list in place.
				rem := b + headerOverhead + mem.Addr(size)
				c.WriteU64(rem, (bs-size-headerOverhead)|flagFree)
				c.WriteAddr(rem+headerOverhead, next)
				next = rem
				c.WriteU64(b, size)
			} else {
				c.WriteU64(b, bs)
			}
			if prev == 0 {
				h.freeHead = next
			} else {
				c.WriteAddr(prev+headerOverhead, next)
			}
			h.allocs++
			return b + headerOverhead, nil
		}
		prev = b
	}
	return 0, ErrOOM
}

// Free returns a block to the heap, coalescing with adjacent free blocks.
func (h *Heap) Free(c *mem.CPU, ptr mem.Addr) error {
	if ptr == 0 || uint64(ptr)%8 != 0 || !h.contains(ptr) {
		return ErrBadFree
	}
	b := ptr - headerOverhead
	if isFree(c, b) {
		return ErrBadFree
	}
	size := blockSize(c, b)

	// Insert in address order, coalescing with neighbours on the list.
	var prev mem.Addr
	next := h.freeHead
	for next != 0 && next < b {
		prev = next
		next = nextFree(c, next)
	}
	// Coalesce with next.
	if next != 0 && b+headerOverhead+mem.Addr(size) == next {
		size += headerOverhead + blockSize(c, next)
		next = nextFree(c, next)
	}
	// Coalesce with prev.
	if prev != 0 && prev+headerOverhead+mem.Addr(blockSize(c, prev)) == b {
		b = prev
		size += headerOverhead + blockSize(c, prev)
		// prev's predecessor keeps pointing at prev (== b now).
		c.WriteU64(b, size|flagFree)
		c.WriteAddr(b+headerOverhead, next)
		h.frees++
		return nil
	}
	c.WriteU64(b, size|flagFree)
	c.WriteAddr(b+headerOverhead, next)
	if prev == 0 {
		h.freeHead = b
	} else {
		c.WriteAddr(prev+headerOverhead, b)
	}
	h.frees++
	return nil
}

// contains reports whether ptr can be a block's user address in one of
// the heap's regions.
func (h *Heap) contains(ptr mem.Addr) bool {
	for _, r := range h.regions {
		if ptr >= r.base+headerOverhead && ptr < r.base+mem.Addr(r.size) {
			return true
		}
	}
	return false
}

// FreeBytes returns the total free payload bytes (walks the free list).
func (h *Heap) FreeBytes(c *mem.CPU) uint64 {
	var total uint64
	for b := h.freeHead; b != 0; b = nextFree(c, b) {
		total += blockSize(c, b)
	}
	return total
}

// AllocCount reports successful allocations.
func (h *Heap) AllocCount() int64 { return h.allocs }

// FreeCount reports successful frees.
func (h *Heap) FreeCount() int64 { return h.frees }
