// Package tlsf implements the Two-Level Segregated Fit dynamic memory
// allocator of Masmano et al. (ECRTS 2004) over the simulated address
// space of internal/mem.
//
// SDRaD replaces the glibc allocator with TLSF because TLSF natively
// manages fully disjoint memory pools: each isolated domain gets its own
// control structure and pool, so an allocation made inside a domain is
// guaranteed to be satisfied from memory tagged with that domain's
// protection key (paper §IV-C, "Heap Management"). The package also
// implements the paper's extension for merging a child domain's subheap
// back into its parent on normal domain destruction.
//
// The layout follows the reference implementation (mattconte/tlsf):
// good-fit, O(1) malloc/free, a first-level index of power-of-two size
// classes and a second level splitting each class into 32 linear
// subdivisions. All allocator metadata — control block, block headers,
// free-list links, boundary tags — lives inside the managed (simulated)
// memory itself, so heap-metadata corruption by an overflowing domain is
// possible exactly as it is in the C library, and is confined to that
// domain's pool by the protection key.
package tlsf

import (
	"errors"
	"fmt"
	"math/bits"

	"sdrad/internal/mem"
)

// Tuning constants, matching the 64-bit reference implementation.
const (
	alignLog2 = 3
	align     = 1 << alignLog2 // all sizes and pointers 8-byte aligned

	slIndexLog2  = 5
	slIndexCount = 1 << slIndexLog2 // 32 second-level subdivisions

	flIndexMax   = 32 // largest block: 2^32 bytes
	flIndexShift = slIndexLog2 + alignLog2
	flIndexCount = flIndexMax - flIndexShift + 1

	smallBlockSize = 1 << flIndexShift // 256: below this, first level 0
)

// Block header flag bits stored in the low bits of the size field.
const (
	flagFree     = 1 << 0
	flagPrevFree = 1 << 1
	flagMask     = flagFree | flagPrevFree
)

// Header layout relative to a block header address H:
//
//	H-8: prev_phys boundary tag (valid only when the previous physical
//	     block is free; it occupies the last word of that block)
//	H+0: size | flags
//	H+8: user data ... or, while free: next-free pointer
//	H+16:                              prev-free pointer
const (
	headerOverhead = 8  // per-block overhead of a used block
	minBlockSize   = 24 // room for the free-list links + boundary tag
)

// maxAlloc is the largest request Alloc accepts.
const maxAlloc = 1 << 31

// Control-block layout relative to the control address:
//
//	+0:                      first-level bitmap (u64)
//	+8 + fl*8:               second-level bitmap for class fl (u64)
//	+slBase + (fl*32+sl)*8:  free-list head (block header address or 0)
const (
	flBitmapOff = 0
	slBitmapOff = 8
	slBase      = slBitmapOff + flIndexCount*8
	ctrlSize    = slBase + flIndexCount*slIndexCount*8
)

// Errors reported by the allocator.
var (
	ErrOOM        = errors.New("tlsf: out of memory")
	ErrTooLarge   = errors.New("tlsf: request exceeds maximum block size")
	ErrBadFree    = errors.New("tlsf: invalid free (not an allocated block)")
	ErrBadRegion  = errors.New("tlsf: region too small or misaligned")
	ErrCorrupt    = errors.New("tlsf: heap invariant violated")
	ErrMergedHeap = errors.New("tlsf: heap was merged into another heap")
)

// CorruptionError is the allocator's integrity abort, glibc's "free():
// invalid next size": Free found the headers around the block it frees
// inconsistent (Addr is the one found wrong), which is what a write past
// the end of an allocation does to the next block's header. Free raises
// it as a panic, as the stack protector raises stack.SmashError: in a
// nested SDRaD domain it is a SIGABRT the monitor rewinds, anywhere else
// it ends the process.
type CorruptionError struct{ Addr mem.Addr }

// Error implements error.
func (e *CorruptionError) Error() string {
	return fmt.Sprintf("tlsf: heap corruption at block 0x%x", uint64(e.Addr))
}

// Region describes one contiguous span of managed memory.
type Region struct {
	Base mem.Addr
	Size uint64
}

// Heap is one TLSF allocator instance: a control block plus one or more
// managed regions. The Go-side struct holds only bookkeeping (control
// address and region list); all allocator state lives in simulated memory.
//
// A Heap is not internally synchronized: SDRaD gives every domain its own
// heap and a domain executes on one thread at a time. Shared data domains
// must be protected by their own lock, as in the paper's Memcached port.
type Heap struct {
	ctrl    mem.Addr
	regions []Region
	merged  bool

	// Allocation statistics (Go-side, observability only).
	allocs int64
	frees  int64

	// allocHook, when non-nil, may veto allocations; see SetAllocHook.
	allocHook func(size uint64) error
}

// SetAllocHook installs (or, with nil, removes) an allocation hook: it is
// consulted at the top of every Alloc and a non-nil return fails the
// allocation with that error, exactly as if the heap were exhausted. The
// chaos engine uses it to inject allocation failures at chosen points and
// verify that OOM paths leave the heap consistent. The hook runs with
// whatever synchronization the caller's Alloc runs under.
func (h *Heap) SetAllocHook(fn func(size uint64) error) { h.allocHook = fn }

// Init creates a heap whose control block and first region are carved from
// [base, base+size). base must be 8-byte aligned and size large enough for
// the control block plus one minimal block.
func Init(c *mem.CPU, base mem.Addr, size uint64) (*Heap, error) {
	if uint64(base)%align != 0 || size < ctrlSize+2*headerOverhead+minBlockSize {
		return nil, ErrBadRegion
	}
	h := &Heap{ctrl: base}
	// Zero the control block: empty bitmaps and lists.
	c.Memset(base, 0, ctrlSize)
	if err := h.AddRegion(c, base+ctrlSize, size-ctrlSize); err != nil {
		return nil, err
	}
	return h, nil
}

// AddRegion donates [base, base+size) to the heap as an additional pool.
func (h *Heap) AddRegion(c *mem.CPU, base mem.Addr, size uint64) error {
	if h.merged {
		return ErrMergedHeap
	}
	if uint64(base)%align != 0 {
		return ErrBadRegion
	}
	size &^= align - 1
	if size < 2*headerOverhead+minBlockSize {
		return ErrBadRegion
	}
	// Main block followed by a zero-size used sentinel that terminates
	// physical-block walks.
	main := base
	mainSize := size - 2*headerOverhead
	c.WriteU64(main, mainSize|flagFree)
	sentinel := main + headerOverhead + mem.Addr(mainSize)
	c.WriteU64(sentinel, 0|flagPrevFree)
	c.WriteAddr(sentinel-8, main) // boundary tag
	h.insert(c, main, mainSize)
	h.regions = append(h.regions, Region{Base: base, Size: size})
	return nil
}

// Regions returns the managed regions (copy).
func (h *Heap) Regions() []Region {
	out := make([]Region, len(h.regions))
	copy(out, h.regions)
	return out
}

// AllocCount and FreeCount report the number of successful operations.
func (h *Heap) AllocCount() int64 { return h.allocs }

// FreeCount reports the number of successful Free calls.
func (h *Heap) FreeCount() int64 { return h.frees }

// --- size-class mapping -------------------------------------------------

// fls returns the index of the highest set bit (floor log2).
func fls(v uint64) int { return 63 - bits.LeadingZeros64(v) }

// mappingInsert computes the (fl, sl) class a block of the given size
// belongs to when inserted into the free lists.
func mappingInsert(size uint64) (fl, sl int) {
	if size < smallBlockSize {
		return 0, int(size / (smallBlockSize / slIndexCount))
	}
	f := fls(size)
	sl = int((size >> (uint(f) - slIndexLog2)) & (slIndexCount - 1))
	fl = f - flIndexShift + 1
	return fl, sl
}

// mappingSearch rounds the request up so the found class is guaranteed to
// hold blocks large enough, then maps it.
func mappingSearch(size uint64) (fl, sl int) {
	if size >= smallBlockSize {
		size += (1 << (uint(fls(size)) - slIndexLog2)) - 1
	}
	return mappingInsert(size)
}

// --- control-block accessors ---------------------------------------------

func (h *Heap) flBitmap(c *mem.CPU) uint64 { return c.ReadU64(h.ctrl + flBitmapOff) }

func (h *Heap) setFLBitmap(c *mem.CPU, v uint64) { c.WriteU64(h.ctrl+flBitmapOff, v) }

func (h *Heap) slBitmap(c *mem.CPU, fl int) uint64 {
	return c.ReadU64(h.ctrl + slBitmapOff + mem.Addr(fl*8))
}

func (h *Heap) setSLBitmap(c *mem.CPU, fl int, v uint64) {
	c.WriteU64(h.ctrl+slBitmapOff+mem.Addr(fl*8), v)
}

func (h *Heap) headAddr(fl, sl int) mem.Addr {
	return h.ctrl + slBase + mem.Addr((fl*slIndexCount+sl)*8)
}

func (h *Heap) head(c *mem.CPU, fl, sl int) mem.Addr {
	return c.ReadAddr(h.headAddr(fl, sl))
}

func (h *Heap) setHead(c *mem.CPU, fl, sl int, b mem.Addr) {
	c.WriteAddr(h.headAddr(fl, sl), b)
}

// --- block accessors ------------------------------------------------------

func blockSize(c *mem.CPU, b mem.Addr) uint64 { return c.ReadU64(b) &^ flagMask }

func blockFlags(c *mem.CPU, b mem.Addr) uint64 { return c.ReadU64(b) & flagMask }

func setBlock(c *mem.CPU, b mem.Addr, size, flags uint64) {
	c.WriteU64(b, size|flags)
}

func isFree(c *mem.CPU, b mem.Addr) bool { return c.ReadU64(b)&flagFree != 0 }

func isPrevFree(c *mem.CPU, b mem.Addr) bool { return c.ReadU64(b)&flagPrevFree != 0 }

// nextBlock returns the header of the physically following block.
func nextBlock(c *mem.CPU, b mem.Addr) mem.Addr {
	return b + headerOverhead + mem.Addr(blockSize(c, b))
}

// prevPhys reads the boundary tag (valid only when isPrevFree).
func prevPhys(c *mem.CPU, b mem.Addr) mem.Addr { return c.ReadAddr(b - 8) }

func nextFree(c *mem.CPU, b mem.Addr) mem.Addr { return c.ReadAddr(b + 8) }

func prevFree(c *mem.CPU, b mem.Addr) mem.Addr { return c.ReadAddr(b + 16) }

func setNextFree(c *mem.CPU, b, v mem.Addr) { c.WriteAddr(b+8, v) }

func setPrevFree(c *mem.CPU, b, v mem.Addr) { c.WriteAddr(b+16, v) }

// --- free-list maintenance -------------------------------------------------

// insert links a free block of the given size into its class list and sets
// the bitmap bits.
func (h *Heap) insert(c *mem.CPU, b mem.Addr, size uint64) {
	fl, sl := mappingInsert(size)
	head := h.head(c, fl, sl)
	setNextFree(c, b, head)
	setPrevFree(c, b, 0)
	if head != 0 {
		setPrevFree(c, head, b)
	}
	h.setHead(c, fl, sl, b)
	h.setFLBitmap(c, h.flBitmap(c)|1<<uint(fl))
	h.setSLBitmap(c, fl, h.slBitmap(c, fl)|1<<uint(sl))
}

// remove unlinks a free block from its class list, clearing bitmap bits
// when the list empties.
func (h *Heap) remove(c *mem.CPU, b mem.Addr, size uint64) {
	fl, sl := mappingInsert(size)
	next := nextFree(c, b)
	prev := prevFree(c, b)
	if next != 0 {
		setPrevFree(c, next, prev)
	}
	if prev != 0 {
		setNextFree(c, prev, next)
	} else {
		h.setHead(c, fl, sl, next)
		if next == 0 {
			slm := h.slBitmap(c, fl) &^ (1 << uint(sl))
			h.setSLBitmap(c, fl, slm)
			if slm == 0 {
				h.setFLBitmap(c, h.flBitmap(c)&^(1<<uint(fl)))
			}
		}
	}
}

// searchSuitable finds a free block of at least the class (fl, sl),
// returning 0 when none exists.
func (h *Heap) searchSuitable(c *mem.CPU, fl, sl int) (b mem.Addr, ffl, fsl int) {
	slMap := h.slBitmap(c, fl) & (^uint64(0) << uint(sl))
	if slMap == 0 {
		flMap := h.flBitmap(c) & (^uint64(0) << uint(fl+1))
		if flMap == 0 {
			return 0, 0, 0
		}
		fl = bits.TrailingZeros64(flMap)
		slMap = h.slBitmap(c, fl)
	}
	sl = bits.TrailingZeros64(slMap)
	return h.head(c, fl, sl), fl, sl
}

// --- public allocation API --------------------------------------------------

// adjustSize rounds a request up to alignment and the minimum block size.
func adjustSize(size uint64) uint64 {
	if size < minBlockSize {
		size = minBlockSize
	}
	return (size + align - 1) &^ uint64(align-1)
}

// Alloc returns the address of a fresh block of at least size bytes.
func (h *Heap) Alloc(c *mem.CPU, size uint64) (mem.Addr, error) {
	if h.merged {
		return 0, ErrMergedHeap
	}
	if h.allocHook != nil {
		if err := h.allocHook(size); err != nil {
			return 0, err
		}
	}
	if size == 0 {
		size = 1
	}
	if size > maxAlloc {
		return 0, ErrTooLarge
	}
	adjust := adjustSize(size)
	fl, sl := mappingSearch(adjust)
	b, _, _ := h.searchSuitable(c, fl, sl)
	if b == 0 {
		return 0, ErrOOM
	}
	bsize := blockSize(c, b)
	h.remove(c, b, bsize)

	// Split when the remainder can stand alone as a block.
	if bsize >= adjust+headerOverhead+minBlockSize {
		rem := b + headerOverhead + mem.Addr(adjust)
		remSize := bsize - adjust - headerOverhead
		setBlock(c, b, adjust, blockFlags(c, b))
		// The remainder follows a used block.
		setBlock(c, rem, remSize, flagFree)
		// Tell the block after the remainder about its new free neighbour.
		n := nextBlock(c, rem)
		setBlock(c, n, blockSize(c, n), blockFlags(c, n)|flagPrevFree)
		c.WriteAddr(n-8, rem)
		h.insert(c, rem, remSize)
		bsize = adjust
	} else {
		// Whole block used: clear the next block's prev-free flag.
		n := nextBlock(c, b)
		setBlock(c, n, blockSize(c, n), blockFlags(c, n)&^uint64(flagPrevFree))
	}
	// Mark used, preserving the prev-free flag.
	setBlock(c, b, bsize, blockFlags(c, b)&^uint64(flagFree))
	h.allocs++
	return b + headerOverhead, nil
}

// AllocZeroed is Alloc followed by clearing the block (calloc).
func (h *Heap) AllocZeroed(c *mem.CPU, size uint64) (mem.Addr, error) {
	p, err := h.Alloc(c, size)
	if err != nil {
		return 0, err
	}
	c.Memset(p, 0, int(adjustSize(size)))
	return p, nil
}

// UsableSize returns the usable size of an allocated block.
func (h *Heap) UsableSize(c *mem.CPU, ptr mem.Addr) uint64 {
	return blockSize(c, ptr-headerOverhead)
}

// Free releases a block previously returned by Alloc, coalescing with free
// physical neighbours.
func (h *Heap) Free(c *mem.CPU, ptr mem.Addr) error {
	if h.merged {
		return ErrMergedHeap
	}
	if ptr == 0 || uint64(ptr)%align != 0 || !h.contains(ptr) {
		return ErrBadFree
	}
	b := ptr - headerOverhead
	if isFree(c, b) {
		return ErrBadFree // double free
	}
	if err := h.integrity(c, b); err != nil {
		panic(err)
	}
	size := blockSize(c, b)

	// Coalesce with the previous physical block.
	if isPrevFree(c, b) {
		p := prevPhys(c, b)
		psize := blockSize(c, p)
		h.remove(c, p, psize)
		size += psize + headerOverhead
		b = p
	}
	// Coalesce with the next physical block.
	n := b + headerOverhead + mem.Addr(size)
	if isFree(c, n) {
		nsize := blockSize(c, n)
		h.remove(c, n, nsize)
		size += nsize + headerOverhead
	}
	setBlock(c, b, size, flagFree|blockFlags(c, b)&flagPrevFree)
	// Publish the boundary tag and prev-free flag to the next block.
	n = b + headerOverhead + mem.Addr(size)
	setBlock(c, n, blockSize(c, n), blockFlags(c, n)|flagPrevFree)
	c.WriteAddr(n-8, b)
	h.insert(c, b, size)
	h.frees++
	return nil
}

// integrity is the free-time check of the used block b: its header, a
// free previous block's boundary tag, and the headers of the two blocks
// after it must agree with one another as Check's walk requires. A write
// past the end of an allocation reaches the next block's header first,
// so it fails here when the block is freed; the cost is a few header
// reads.
func (h *Heap) integrity(c *mem.CPU, b mem.Addr) *CorruptionError {
	var r Region
	for _, r = range h.regions {
		if b >= r.Base && b < r.Base+mem.Addr(r.Size) {
			break
		}
	}
	end := r.Base + mem.Addr(r.Size) - headerOverhead // the sentinel
	// next returns the header after x, or 0 when x's size is not one a
	// block in this region can have.
	next := func(x mem.Addr) mem.Addr {
		size := blockSize(c, x)
		if n := x + headerOverhead + mem.Addr(size); size >= minBlockSize && size%align == 0 && n <= end {
			return n
		}
		return 0
	}
	n := next(b)
	if n == 0 {
		return &CorruptionError{b}
	}
	if isPrevFree(c, b) { // the boundary tag is valid only then
		if p := prevPhys(c, b); p < r.Base || p >= b || !isFree(c, p) || next(p) != b {
			return &CorruptionError{b}
		}
	}
	if n == end && !isPrevFree(c, n) {
		return nil
	}
	nn := next(n)
	if isPrevFree(c, n) || nn == 0 || isPrevFree(c, nn) != isFree(c, n) ||
		(isFree(c, n) && prevPhys(c, nn) != n) || (nn != end && next(nn) == 0) {
		return &CorruptionError{n}
	}
	return nil
}

// contains reports whether ptr lies inside a managed region.
func (h *Heap) contains(ptr mem.Addr) bool {
	for _, r := range h.regions {
		if ptr >= r.Base && ptr < r.Base+mem.Addr(r.Size) {
			return true
		}
	}
	return false
}

// Merge adopts every region of child into h: free blocks of the child are
// inserted into h's free lists and live allocations remain valid, now
// owned by h. This implements the paper's subheap merge performed when a
// transient domain exits normally with the HEAP_MERGE option. The child
// heap becomes unusable.
//
// Merge must never be used after an abnormal domain exit — the paper
// mandates that such subheaps are discarded because their contents are
// considered corrupted.
func (h *Heap) Merge(c *mem.CPU, child *Heap) error {
	if h.merged {
		return ErrMergedHeap
	}
	if child.merged {
		return ErrMergedHeap
	}
	for _, r := range child.regions {
		b := r.Base
		end := r.Base + mem.Addr(r.Size) - headerOverhead // sentinel header
		for b < end {
			size := blockSize(c, b)
			if isFree(c, b) {
				h.insert(c, b, size)
			}
			b = b + headerOverhead + mem.Addr(size)
		}
		h.regions = append(h.regions, r)
	}
	h.allocs += child.allocs
	h.frees += child.frees
	child.merged = true
	child.regions = nil
	return nil
}

// BlockInfo describes one physical block during a Walk.
type BlockInfo struct {
	Header mem.Addr
	User   mem.Addr
	Size   uint64
	Free   bool
}

// Walk visits every physical block in every region in address order. The
// callback returning false stops the walk.
func (h *Heap) Walk(c *mem.CPU, fn func(BlockInfo) bool) {
	for _, r := range h.regions {
		b := r.Base
		end := r.Base + mem.Addr(r.Size) - headerOverhead
		for b < end {
			size := blockSize(c, b)
			if !fn(BlockInfo{Header: b, User: b + headerOverhead, Size: size, Free: isFree(c, b)}) {
				return
			}
			b = b + headerOverhead + mem.Addr(size)
		}
	}
}

// Usage returns the bytes currently allocated and free (excluding
// headers), plus the block counts.
func (h *Heap) Usage(c *mem.CPU) (usedBytes, freeBytes uint64, usedBlocks, freeBlocks int) {
	h.Walk(c, func(bi BlockInfo) bool {
		if bi.Free {
			freeBytes += bi.Size
			freeBlocks++
		} else {
			usedBytes += bi.Size
			usedBlocks++
		}
		return true
	})
	return
}

// Check validates the structural invariants of the heap:
//
//  1. every block size is aligned and at least the minimum,
//  2. physical adjacency is consistent (prev-free flags and boundary
//     tags match reality),
//  3. no two adjacent free blocks exist (coalescing is total),
//  4. bitmap bits reflect list occupancy and every listed block is free
//     and mapped to the right class.
//
// It returns an error wrapping ErrCorrupt describing the first violation.
func (h *Heap) Check(c *mem.CPU) error {
	if h.merged {
		return ErrMergedHeap
	}
	// Physical walk per region.
	for _, r := range h.regions {
		b := r.Base
		end := r.Base + mem.Addr(r.Size) - headerOverhead
		prevWasFree := false
		first := true
		var prevHeader mem.Addr
		for b < end {
			size := blockSize(c, b)
			if size%align != 0 || size < minBlockSize {
				return fmt.Errorf("%w: block 0x%x has bad size %d", ErrCorrupt, uint64(b), size)
			}
			if !first {
				if isPrevFree(c, b) != prevWasFree {
					return fmt.Errorf("%w: block 0x%x prev-free flag mismatch", ErrCorrupt, uint64(b))
				}
				if prevWasFree && prevPhys(c, b) != prevHeader {
					return fmt.Errorf("%w: block 0x%x boundary tag mismatch", ErrCorrupt, uint64(b))
				}
			}
			if isFree(c, b) && prevWasFree {
				return fmt.Errorf("%w: adjacent free blocks at 0x%x", ErrCorrupt, uint64(b))
			}
			prevWasFree = isFree(c, b)
			prevHeader = b
			first = false
			b = b + headerOverhead + mem.Addr(size)
		}
		if b != end {
			return fmt.Errorf("%w: region walk overran sentinel (0x%x != 0x%x)", ErrCorrupt, uint64(b), uint64(end))
		}
	}
	// Free lists vs bitmaps.
	for fl := 0; fl < flIndexCount; fl++ {
		slm := h.slBitmap(c, fl)
		if (h.flBitmap(c)&(1<<uint(fl)) != 0) != (slm != 0) {
			return fmt.Errorf("%w: fl bitmap bit %d inconsistent", ErrCorrupt, fl)
		}
		for sl := 0; sl < slIndexCount; sl++ {
			head := h.head(c, fl, sl)
			if (slm&(1<<uint(sl)) != 0) != (head != 0) {
				return fmt.Errorf("%w: sl bitmap bit (%d,%d) inconsistent", ErrCorrupt, fl, sl)
			}
			for b := head; b != 0; b = nextFree(c, b) {
				if !isFree(c, b) {
					return fmt.Errorf("%w: used block 0x%x on free list", ErrCorrupt, uint64(b))
				}
				bfl, bsl := mappingInsert(blockSize(c, b))
				if bfl != fl || bsl != sl {
					return fmt.Errorf("%w: block 0x%x in class (%d,%d), want (%d,%d)",
						ErrCorrupt, uint64(b), fl, sl, bfl, bsl)
				}
			}
		}
	}
	return nil
}

// Overhead returns the fixed per-heap metadata size (the control block).
func Overhead() uint64 { return ctrlSize }

// MinRegion returns the smallest usable size for Init.
func MinRegion() uint64 { return ctrlSize + 2*headerOverhead + minBlockSize }

// Realloc resizes an allocation. It grows in place when the physically
// next block is free and large enough, shrinks in place by splitting off
// a remainder, and otherwise allocates a new block, copies the payload,
// and frees the old one. Realloc(0, n) behaves like Alloc(n);
// Realloc(p, 0) frees p and returns 0.
func (h *Heap) Realloc(c *mem.CPU, ptr mem.Addr, size uint64) (mem.Addr, error) {
	if h.merged {
		return 0, ErrMergedHeap
	}
	if ptr == 0 {
		return h.Alloc(c, size)
	}
	if size == 0 {
		return 0, h.Free(c, ptr)
	}
	if size > maxAlloc {
		return 0, ErrTooLarge
	}
	if uint64(ptr)%align != 0 || !h.contains(ptr) {
		return 0, ErrBadFree
	}
	b := ptr - headerOverhead
	if isFree(c, b) {
		return 0, ErrBadFree
	}
	cur := blockSize(c, b)
	adjust := adjustSize(size)

	if adjust <= cur {
		h.shrinkInPlace(c, b, cur, adjust)
		return ptr, nil
	}

	// Try absorbing the next physical block.
	n := nextBlock(c, b)
	if isFree(c, n) {
		nsize := blockSize(c, n)
		if cur+headerOverhead+nsize >= adjust {
			h.remove(c, n, nsize)
			merged := cur + headerOverhead + nsize
			setBlock(c, b, merged, blockFlags(c, b))
			// The block after the absorbed neighbour now follows a used
			// block.
			nn := nextBlock(c, b)
			setBlock(c, nn, blockSize(c, nn), blockFlags(c, nn)&^uint64(flagPrevFree))
			h.shrinkInPlace(c, b, merged, adjust)
			return ptr, nil
		}
	}

	// Move: allocate, copy, free.
	np, err := h.Alloc(c, size)
	if err != nil {
		return 0, err
	}
	copyLen := cur
	if uint64(size) < copyLen {
		copyLen = uint64(size)
	}
	c.Copy(np, ptr, int(copyLen))
	if err := h.Free(c, ptr); err != nil {
		return 0, err
	}
	return np, nil
}

// shrinkInPlace reduces a used block to adjust bytes, releasing the
// remainder as a free block when it can stand alone.
func (h *Heap) shrinkInPlace(c *mem.CPU, b mem.Addr, cur, adjust uint64) {
	if cur < adjust+headerOverhead+minBlockSize {
		return // remainder too small to split off
	}
	setBlock(c, b, adjust, blockFlags(c, b))
	rem := b + headerOverhead + mem.Addr(adjust)
	remSize := cur - adjust - headerOverhead
	// Mark the remainder used (prev is the shrunk used block), then run
	// it through Free so it coalesces with a free successor normally.
	setBlock(c, rem, remSize, 0)
	n := nextBlock(c, rem)
	setBlock(c, n, blockSize(c, n), blockFlags(c, n)&^uint64(flagPrevFree))
	h.frees-- // compensate: this Free is bookkeeping, not a client free
	_ = h.Free(c, rem+headerOverhead)
}
