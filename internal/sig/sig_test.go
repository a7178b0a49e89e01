package sig

import (
	"testing"
	"testing/quick"
)

func TestMaskOps(t *testing.T) {
	var m Mask
	if m.Has(SIGSEGV) {
		t.Error("zero mask blocks SIGSEGV")
	}
	m = m.Block(SIGSEGV).Block(SIGTERM)
	if !m.Has(SIGSEGV) || !m.Has(SIGTERM) || m.Has(SIGABRT) {
		t.Error("block set wrong bits")
	}
	m = m.Unblock(SIGSEGV)
	if m.Has(SIGSEGV) || !m.Has(SIGTERM) {
		t.Error("unblock cleared wrong bits")
	}
	// Out-of-range signals are no-ops.
	if m.Block(0) != m || m.Block(65) != m || m.Unblock(-1) != m {
		t.Error("out-of-range signal changed mask")
	}
	if m.Has(0) || m.Has(99) {
		t.Error("out-of-range Has returned true")
	}
}

// Property: Block sets exactly the requested bit and Unblock reverses it.
func TestQuickMaskRoundTrip(t *testing.T) {
	prop := func(base uint64, raw uint8) bool {
		s := Signal(int(raw%maxSignal) + 1)
		m := Mask(base)
		if !m.Block(s).Has(s) {
			return false
		}
		if m.Block(s).Unblock(s).Has(s) {
			return false
		}
		// Other bits untouched.
		other := Signal((int(s) % maxSignal) + 1)
		if other != s {
			before := m.Has(other)
			if m.Block(s).Has(other) != before {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStrings(t *testing.T) {
	if SIGSEGV.String() != "SIGSEGV" || SIGABRT.String() != "SIGABRT" ||
		SIGKILL.String() != "SIGKILL" || SIGTERM.String() != "SIGTERM" {
		t.Error("Signal.String broken")
	}
	if Signal(33).String() == "" {
		t.Error("unknown signal should format")
	}
	info := &Info{Signal: SIGSEGV, Code: 4, Addr: 0x10, PKey: 2}
	if info.String() == "" {
		t.Error("Info.String empty")
	}
}
