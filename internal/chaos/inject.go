package chaos

import (
	"sdrad/internal/core"
	"sdrad/internal/mem"
	"sdrad/internal/proc"
)

// armGated installs a one-shot injector that lets countdown-1 accesses
// pass and turns the next one into a fault with the given code, charged
// to the root key.
// The thread alternates between root and nested domains, so it only
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
