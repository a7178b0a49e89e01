// Package cacheline keeps what one serving thread writes off the cache
// lines another thread writes (DESIGN §9, "Monitor bracket fast path").
//
// Two threads that write one 64-byte line, each to its own field, still
// hand the line back and forth between their cores on every write: false
// sharing. Go's allocator packs small objects of one size class back to
// back, and most classes are not multiples of a line, so two threads'
// records allocated in a row share the line at their seam. A record that
// one thread writes on the request path therefore puts a Pad before and
// after its written fields, and per-thread scratch arrays come from Slice
// and grow through Append.
package cacheline

import (
	"reflect"
	"unsafe"
)

// Size is the cache line size the layout assumes: 64 bytes on amd64 and
// on most arm64 cores.
const Size = 64

// Pad is one cache line of padding. A record written by one thread starts
// and ends with a Pad, so whatever the heap puts next to it, its written
// fields share no line with a neighbour.
type Pad struct{ _ [Size]byte }

// Slice returns n zero Ts whose backing array has at least a line of
// unused elements on each side, so the n share no line with any other
// object. The slice's cap is n: a plain append past it reallocates
// without the padding, so grow it with Append.
func Slice[T any](n int) []T {
	var zero T
	sz := unsafe.Sizeof(zero)
	if sz == 0 {
		return make([]T, n)
	}
	p := int((Size + sz - 1) / sz)
	return make([]T, n+2*p)[p : p+n : p+n]
}

// Append is append for a thread's reusable scratch: when s is full, the
// new backing array comes from Slice, so the scratch keeps its padding as
// it grows.
func Append[T any](s []T, v T) []T {
	if len(s) == cap(s) {
		g := Slice[T](max(2*cap(s), 4))
		s = g[:copy(g, s)]
	}
	return append(s, v)
}

// Span is the run of lines, First through Last, that a range of memory
// occupies. The layout tests use it to check that two threads' written
// fields share no line.
type Span struct{ First, Last uintptr }

// Of returns the lines the n bytes at addr occupy; n must be positive.
func Of(addr, n uintptr) Span { return Span{addr / Size, (addr + n - 1) / Size} }

// Shares reports whether s and o have a line in common.
func (s Span) Shares(o Span) bool { return s.First <= o.Last && o.First <= s.Last }

// Fields returns the lines the fields of the struct at p occupy, leaving
// out its Pad fields: the part of a padded record that its thread writes.
func Fields[T any](p *T) Span {
	typ := reflect.TypeFor[T]()
	pad := reflect.TypeFor[Pad]()
	lo, hi := typ.Size(), uintptr(0)
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Type != pad {
			lo, hi = min(lo, f.Offset), max(hi, f.Offset+f.Type.Size())
		}
	}
	return Of(uintptr(unsafe.Pointer(p))+lo, hi-lo)
}
