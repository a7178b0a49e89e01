package cacheline

import (
	"testing"
	"unsafe"
)

func TestPadIsOneLine(t *testing.T) {
	if got := unsafe.Sizeof(Pad{}); got != Size {
		t.Fatalf("Pad is %d bytes, want %d", got, Size)
	}
}

// Padded slices allocated in a row, as a constructor allocates one per
// worker, share no line, for element sizes above, below and equal to a
// line; the same arrays from make would share the seams of their size
// class.
func TestSlicesInARowShareNoLine(t *testing.T) {
	var spans []Span
	add := func(data unsafe.Pointer, n, sz, capacity int) {
		t.Helper()
		if capacity != n {
			t.Fatalf("cap %d, want %d", capacity, n)
		}
		spans = append(spans, Of(uintptr(data), uintptr(n*sz)))
	}
	for i := 0; i < 32; i++ {
		for _, n := range []int{1, 3} {
			a := Slice[[72]byte](n)
			add(unsafe.Pointer(unsafe.SliceData(a)), n, 72, cap(a))
			b := Slice[uint64](n)
			add(unsafe.Pointer(unsafe.SliceData(b)), n, 8, cap(b))
			c := Slice[[Size]byte](n)
			add(unsafe.Pointer(unsafe.SliceData(c)), n, Size, cap(c))
		}
	}
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			if spans[i].Shares(spans[j]) {
				t.Fatalf("padded slices %d and %d share a line: %v %v", i, j, spans[i], spans[j])
			}
		}
	}
	if s := Slice[struct{}](4); len(s) != 4 {
		t.Fatalf("zero-size elements: len %d", len(s))
	}
}

// Append keeps the padding as the slice grows and the values in order.
func TestAppendGrowsPadded(t *testing.T) {
	var a, b []uint64
	for i := uint64(0); i < 100; i++ {
		a = Append(a, i)
		b = Append(b, i)
		sa := Of(uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(cap(a))*8)
		sb := Of(uintptr(unsafe.Pointer(unsafe.SliceData(b))), uintptr(cap(b))*8)
		if sa.Shares(sb) {
			t.Fatalf("after %d appends the two arrays share a line: %v %v", i+1, sa, sb)
		}
	}
	for i, v := range a {
		if v != uint64(i) {
			t.Fatalf("a[%d] = %d", i, v)
		}
	}
}

// Fields covers a record's fields and none of its pads.
func TestFieldsLeavesOutThePads(t *testing.T) {
	var r struct {
		_ Pad
		a uint64
		b [3]uint32
		_ Pad
	}
	base := uintptr(unsafe.Pointer(&r))
	if got, want := Fields(&r), Of(base+Size, 20); got != want {
		t.Fatalf("Fields = %v, want %v", got, want)
	}
	var bare struct{ a, b uint64 }
	if got, want := Fields(&bare), Of(uintptr(unsafe.Pointer(&bare)), 16); got != want {
		t.Fatalf("Fields of an unpadded record = %v, want %v", got, want)
	}
}

func TestSpanShares(t *testing.T) {
	a := Span{2, 3}
	for _, c := range []struct {
		o    Span
		want bool
	}{{Span{0, 1}, false}, {Span{1, 2}, true}, {Span{3, 3}, true}, {Span{4, 9}, false}, {Span{0, 9}, true}} {
		if got := a.Shares(c.o); got != c.want {
			t.Errorf("%v shares %v = %v, want %v", a, c.o, got, c.want)
		}
	}
	if got := Of(Size-1, 2); got != (Span{0, 1}) {
		t.Errorf("2 bytes across a seam occupy %v", got)
	}
}
