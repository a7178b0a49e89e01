package memcache

import (
	"encoding/binary"

	"sdrad/internal/mem"
)

// sview is the storage engine's memory view for one locked operation: the
// executing CPU plus, when the arena span lease verified, a native byte
// window over the whole cache arena. Every accessor takes the native path
// only for addresses inside the window; anything else — a corrupted chain
// pointer aimed outside the arena, or an operation running without a
// lease — falls back to the checked CPU accessors, so out-of-arena
// dereferences fault with exactly the si_code and address they always
// had. Constructed once per exported Storage operation (one lease
// validity check amortized over the whole locked critical section, the
// software analog of a TLB hit).
type sview struct {
	c    *mem.CPU
	w    []byte // nil: checked accessors only
	base mem.Addr
}

// view builds the access view for one operation. The lease is minted (or
// renewed in O(1)) from the CPU's per-CPU lease cache; a refusal — armed
// fault injector, stale epoch that fails re-verification, no arena bounds
// registered — yields a windowless view.
func (st *Storage) view(c *mem.CPU) sview {
	v := sview{c: c}
	if st.arenaLen > 0 {
		l := c.SpanLease(st.arenaBase, st.arenaLen, mem.AccessWrite)
		if w, ok := l.Window(); ok {
			v.w, v.base = w, st.arenaBase
		}
	}
	return v
}

// off translates a to a window offset, reporting whether [a, a+n) lies
// entirely inside the native window.
func (v sview) off(a mem.Addr, n int) (uint64, bool) {
	if v.w == nil || a < v.base {
		return 0, false
	}
	o := uint64(a) - uint64(v.base)
	return o, o+uint64(n) <= uint64(len(v.w))
}

func (v sview) u64(a mem.Addr) uint64 {
	if o, ok := v.off(a, 8); ok {
		return binary.LittleEndian.Uint64(v.w[o:])
	}
	return v.c.ReadU64(a)
}

func (v sview) putU64(a mem.Addr, x uint64) {
	if o, ok := v.off(a, 8); ok {
		binary.LittleEndian.PutUint64(v.w[o:], x)
		return
	}
	v.c.WriteU64(a, x)
}

func (v sview) addr(a mem.Addr) mem.Addr { return mem.Addr(v.u64(a)) }

func (v sview) putAddr(a, x mem.Addr) { v.putU64(a, uint64(x)) }

func (v sview) write(a mem.Addr, p []byte) {
	if o, ok := v.off(a, len(p)); ok {
		copy(v.w[o:], p)
		return
	}
	v.c.Write(a, p)
}

func (v sview) readBytes(a mem.Addr, n int) []byte {
	if o, ok := v.off(a, n); ok {
		out := make([]byte, n)
		copy(out, v.w[o:])
		return out
	}
	return v.c.ReadBytes(a, n)
}

// bytes returns [a, a+n): the native window itself, which the caller
// reads only while it holds the lock that guards those bytes, or a
// checked copy.
func (v sview) bytes(a mem.Addr, n int) []byte {
	if o, ok := v.off(a, n); ok {
		return v.w[o : o+uint64(n)]
	}
	return v.c.ReadBytes(a, n)
}
