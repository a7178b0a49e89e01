package chaos

import (
	"fmt"

	"sdrad/internal/core"
	"sdrad/internal/mem"
	"sdrad/internal/sig"
)

// runLease attacks the span-lease check-elision fast path (internal/mem
// lease.go): domain code that touches memory through verified native
// windows instead of checked accessors. The property under test is that
// eliding the per-access check changes NOTHING about fault semantics:
//
//   - arming an injector instantly tears down every window, so the access
//     falls back checked and the injected fault fires with the same
//     si_code at the same first faulting byte a lease-free build reports,
//     producing exactly one forensics report;
//   - an access outside the leased span refuses (rather than faulting or
//     silently eliding), and the checked fallback raises the genuine
//     out-of-bounds fault at the exact byte;
//   - an absorbed rewind revokes the victim domain's windows;
//   - epoch revocation mid-workload is absorbed by one renewal walk, with
//     no rewind and no forensics noise.
func runLease(cfg Config, r *Report) error {
	const victimUDI = core.UDI(5)
	return runCoreCampaign(cfg, r, func(env *coreEnv) error {
		t, lib, c := env.t, env.lib, env.t.CPU()
		vectors := []string{"inject-under-lease", "oob-past-lease", "epoch-renew", "benign"}
		for i := 0; i < cfg.Ops; i++ {
			vector := vectors[env.rng.Intn(len(vectors))]
			countdown := 1 + env.rng.Intn(3)
			offset := mem.Addr(8 * env.rng.Intn(64))
			label := fmt.Sprintf("op=%02d %s", i, vector)
			b := env.before()

			var lease *mem.Lease
			var wantAddr mem.Addr
			heap, gerr := env.scope(label, victimUDI, 64, func(buf mem.Addr, heap region) error {
				// The leased fast path: a verified write window over the
				// domain buffer, used the way the hardened servers use their
				// slot leases.
				lease = c.SpanLease(buf, 64, mem.AccessWrite)
				w, ok := lease.Window()
				if !ok {
					return fmt.Errorf("chaos: in-domain lease refused")
				}
				for j := range w {
					w[j] = byte(i)
				}
				// The window is the real backing: the checked accessor must
				// agree with what went through the lease.
				if got := c.ReadU8(buf + 7); got != byte(i) {
					r.failf("%s: leased write invisible to checked read: %#x", label, got)
				}
				switch vector {
				case "inject-under-lease":
					armCountdown(c, countdown, mem.CodePkuErr, lib.RootKey())
					// Arming must revoke the window immediately — one elided
					// access here would dodge the injected fault.
					if lease.Valid() {
						r.failf("%s: lease valid with injector armed", label)
					}
					if _, ok := lease.Bytes(buf, 8); ok {
						r.failf("%s: leased access elided the armed injector", label)
					}
					// The fallback path: checked writes, on which the
					// countdown fires at an exact, predictable byte.
					wantAddr = buf + mem.Addr(8*(countdown-1))
					for j := 0; j < 4; j++ {
						c.WriteU64(buf+mem.Addr(8*j), uint64(i))
					}
					return errNoFault
				case "oob-past-lease":
					// Past the end of the window: the lease must refuse, and
					// the checked fallback raises the genuine fault at the
					// exact first faulting byte.
					wantAddr = heap.base + mem.Addr(heap.size) + offset
					if _, ok := lease.Bytes(wantAddr, 8); ok {
						r.failf("%s: lease served bytes outside its span", label)
					}
					c.WriteU64(wantAddr, 0xdead)
					return errNoFault
				case "epoch-renew":
					// A policy-change revocation mid-workload: one renewal
					// walk brings the window back, nothing rewinds.
					env.as.BumpLeaseEpoch()
					if lease.Valid() {
						r.failf("%s: lease valid across epoch bump", label)
					}
					w, ok := lease.Bytes(buf, 16)
					if !ok {
						r.failf("%s: lease did not renew after epoch bump", label)
					} else {
						w[0] = byte(i) + 1
					}
					return lib.Exit(t)
				default: // benign
					return lib.Exit(t)
				}
			})

			if vector == "benign" || vector == "epoch-renew" {
				env.benign(label, b, gerr)
				continue
			}
			injected := vector == "inject-under-lease"
			if abn := env.rewound(label, b, gerr, victimUDI, sig.SIGSEGV, injected, heap); abn != nil {
				if (injected && abn.Code != int(mem.CodePkuErr)) || !wildCode(abn.Code) {
					r.failf("%s: unexpected fault code %d", label, abn.Code)
				}
				if abn.Addr != uint64(wantAddr) {
					r.failf("%s: fault at 0x%x, want exact byte 0x%x", label, abn.Addr, uint64(wantAddr))
				}
			}
			if injected && c.FaultInjectorArmed() {
				r.failf("%s: injector still armed after firing", label)
			}
			// The rewind must have revoked the victim's window: using it
			// after the domain was discarded would read scrubbed or
			// repurposed memory.
			if lease != nil && lease.Valid() {
				r.failf("%s: lease still valid after rewind revoked the domain", label)
			}
			if wantAddr != 0 {
				r.event("%s countdown=%d addr=0x%x rewind", label, countdown, uint64(wantAddr))
			}
		}
		return nil
	})
}
