package host

import (
	"errors"
	"testing"

	"sdrad/internal/core"
	"sdrad/internal/proc"
)

var variants = []Variant{Vanilla, TLSF, SDRaD}

func newHost(t *testing.T, v Variant) *Host {
	t.Helper()
	h, err := New(Config{Name: "host-" + v.String(), Seed: 1, Variant: v,
		RootHeap: 1 << 20, BaselineHeap: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Stop)
	return h
}

func TestParseVariant(t *testing.T) {
	for _, v := range variants {
		if got, err := ParseVariant(v.String()); err != nil || got != v {
			t.Errorf("ParseVariant(%q) = %v, %v", v.String(), got, err)
		}
	}
	if _, err := ParseVariant("bogus"); err == nil {
		t.Error("ParseVariant accepted bogus")
	}
	if Variant(0).String() != "unknown" {
		t.Errorf("Variant(0) = %q", Variant(0).String())
	}
	if _, err := New(Config{Variant: 0}); err == nil {
		t.Error("New accepted variant 0")
	}
}

func TestConnLifecycle(t *testing.T) {
	for _, v := range variants {
		t.Run(v.String(), func(t *testing.T) {
			h := newHost(t, v)
			err := h.Provision(func(th *proc.Thread) error {
				var a ConnBufs
				if err := h.OpenConn(th, &a, 4096, 8192); err != nil {
					return err
				}
				mapped := h.MappedBytes()
				if !h.CloseConn(th, &a) || !a.Closed {
					t.Error("first CloseConn did not close an open connection")
				}
				if h.CloseConn(th, &a) {
					t.Error("second CloseConn reported an open connection")
				}
				// Nothing was freed twice: a reopened connection takes the
				// two freed blocks back, and a second one gets other blocks.
				var b, c ConnBufs
				if err := h.OpenConn(th, &b, 4096, 8192); err != nil {
					return err
				}
				if err := h.OpenConn(th, &c, 4096, 8192); err != nil {
					return err
				}
				if b.RBuf != a.RBuf || b.WBuf != a.WBuf {
					t.Errorf("reopened buffers %#x/%#x, freed ones %#x/%#x", b.RBuf, b.WBuf, a.RBuf, a.WBuf)
				}
				if c.RBuf == b.RBuf || c.WBuf == b.WBuf || c.RBuf == b.WBuf || c.WBuf == b.RBuf {
					t.Errorf("two open connections share a buffer: %+v %+v", b, c)
				}
				rb := b.RBuf
				if err := h.OpenConn(th, &b, 4096, 8192); err != nil || b.RBuf != rb {
					t.Errorf("OpenConn on an open connection reallocated: %v", err)
				}
				if got := h.MappedBytes(); got != mapped {
					t.Errorf("MappedBytes %d after reopening, %d before", got, mapped)
				}
				h.ShedConn(th, &b)
				h.ShedConn(th, &b)
				h.ShedConn(th, &a) // closed before: not a shed
				if h.Shed() != 1 {
					t.Errorf("Shed = %d after shedding one connection twice, want 1", h.Shed())
				}
				h.NoteDegraded()
				if h.Degraded() != 1 {
					t.Errorf("Degraded = %d, want 1", h.Degraded())
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if h.Rewinds() != 0 {
				t.Errorf("Rewinds = %d, want 0", h.Rewinds())
			}
			if (h.Library() != nil) != (v == SDRaD) {
				t.Errorf("Library() = %v on %v", h.Library(), v)
			}
			if crashed, err := h.Crashed(); crashed || err != nil {
				t.Errorf("Crashed = %v, %v", crashed, err)
			}
		})
	}
}

// TestDomainsOnlyOnTheHardenedBuild holds the host's domain calls to one
// meaning per build: DataDomain, a udi's heap and a Scope are the SDRaD
// library's on the hardened build, and on a baseline a no-op, the one
// heap and a plain call.
func TestDomainsOnlyOnTheHardenedBuild(t *testing.T) {
	for _, v := range variants {
		t.Run(v.String(), func(t *testing.T) {
			h := newHost(t, v)
			err := h.Provision(func(th *proc.Thread) error {
				if err := h.DataDomain(th, 9, 64<<10); err != nil {
					return err
				}
				p, err := h.Alloc(th, 9, 128)
				if err != nil {
					return err
				}
				if err := h.Free(th, 9, p); err != nil {
					return err
				}
				ran := 0
				want := errors.New("body error")
				err = h.Scope(th, 1, func() error {
					ran++
					q, err := h.Alloc(th, 1, 64)
					if err != nil {
						return err
					}
					if err := h.Free(th, 1, q); err != nil {
						return err
					}
					return want
				}, core.Accessible())
				if ran != 1 || err != want {
					t.Errorf("Scope ran body %d times, returned %v", ran, err)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
