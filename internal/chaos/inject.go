package chaos

import (
	"sdrad/internal/core"
	"sdrad/internal/mem"
	"sdrad/internal/proc"
)

// armCountdown installs a one-shot injector that lets countdown-1 accesses
// pass and turns the next one into a fault with the given code. The caller
// arms it from inside the victim domain, so the counted accesses are
// domain accesses.
func armCountdown(c *mem.CPU, countdown int, code mem.FaultCode, pkey int) {
	n := 0
	c.SetFaultInjector(func(_ mem.Addr, kind mem.AccessKind) *mem.Fault {
		n++
		if n < countdown {
			return nil
		}
		return &mem.Fault{Kind: kind, Code: code, PKey: pkey}
	})
}

// armGated installs a one-shot injector for workload campaigns, where the
// serving thread alternates between root and nested domains: it only
// counts accesses made while executing inside a nested domain, and never
// fires on the monitor's own ledger page. Firing in the root domain would
// be an unrecoverable fault (process death) rather than a rewind, and a
// fault on the ledger write would desynchronize the very counters the
// audit checks — neither is the scenario under test.
func armGated(lib *core.Library, t *proc.Thread, countdown int, code mem.FaultCode) {
	c := t.CPU()
	monitorPage := lib.MonitorBase() &^ (mem.PageSize - 1)
	n := 0
	c.SetFaultInjector(func(addr mem.Addr, kind mem.AccessKind) *mem.Fault {
		if lib.Current(t) == core.RootUDI {
			return nil
		}
		if addr&^(mem.PageSize-1) == monitorPage {
			return nil
		}
		n++
		if n < countdown {
			return nil
		}
		return &mem.Fault{Kind: kind, Code: code, PKey: lib.RootKey()}
	})
}

// mangle flips 1-3 bytes of a protocol request at seeded positions,
// optionally truncating it — the fuzz-shaped malformed-input class. The
// input is copied, never modified in place.
func mangle(rng interface{ Intn(int) int }, req []byte) []byte {
	out := make([]byte, len(req))
	copy(out, req)
	if len(out) == 0 {
		return out
	}
	if rng.Intn(4) == 0 {
		out = out[:1+rng.Intn(len(out))]
	}
	flips := 1 + rng.Intn(3)
	for i := 0; i < flips && len(out) > 0; i++ {
		pos := rng.Intn(len(out))
		out[pos] ^= byte(1 + rng.Intn(255))
	}
	return out
}
