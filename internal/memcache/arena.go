package memcache

import (
	"errors"
	"sync"

	"sdrad/internal/mem"
)

// ErrArenaFull is returned when the cache memory limit is reached; the
// storage engine responds by evicting (Memcached's -m behaviour).
var ErrArenaFull = errors.New("memcache: cache memory limit reached")

// bumpArena sub-allocates slab pages out of one pre-sized block, the
// equivalent of Memcached allocating 1 MiB slab pages until its memory
// limit. It never frees — slab pages are recycled by the chunk free
// lists.
type bumpArena struct {
	mu   sync.Mutex
	base mem.Addr
	size uint64
	off  uint64
}

func newBumpArena(base mem.Addr, size uint64) *bumpArena {
	return &bumpArena{base: base, size: size}
}

func (a *bumpArena) alloc(size uint64) (mem.Addr, error) {
	size = (size + 7) &^ 7
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.off+size > a.size {
		return 0, ErrArenaFull
	}
	p := a.base + mem.Addr(a.off)
	a.off += size
	return p, nil
}
