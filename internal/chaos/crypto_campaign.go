package chaos

import (
	"fmt"

	"sdrad/internal/core"
	"sdrad/internal/cryptolib"
	"sdrad/internal/mem"
	"sdrad/internal/sig"
)

// runCrypto attacks the isolated OpenSSL-style wrappers: one-shot faults
// injected inside EncryptUpdate's crypto domain (absorbed, then the
// wrapper is re-initialized, as the paper's §V-B recovery), and malicious
// certificates absorbed by the X.509 verifier domain. Benign operations
// between attacks prove the wrappers stay functional.
func runCrypto(cfg Config, r *Report) error {
	return runCoreCampaign(cfg, r, func(env *coreEnv) error {
		t, lib, c := env.t, env.lib, env.t.CPU()

		key := make([]byte, 32)
		for i := range key {
			key[i] = byte(0xA0 + i)
		}
		cr, err := cryptolib.NewCrypto(t, lib, cryptolib.NewEngine(), cryptolib.ModeCopyBoth, key, 1024)
		if err != nil {
			return err
		}
		v := cryptolib.NewVerifier(lib, 4096)

		in, err := lib.Malloc(t, core.RootUDI, 1024)
		if err != nil {
			return err
		}
		out, err := lib.Malloc(t, core.RootUDI, 1024+cryptolib.GCMTagSize)
		if err != nil {
			return err
		}

		encrypt := func(label string, n int) {
			payload := make([]byte, n)
			for j := range payload {
				payload[j] = byte(env.rng.Intn(256))
			}
			c.Write(in, payload)
			outl, err := cr.EncryptUpdate(t, out, in, n)
			if err != nil {
				r.failf("%s: encrypt failed: %v", label, err)
			} else if outl != n+cryptolib.GCMTagSize {
				r.failf("%s: ciphertext length %d, want %d", label, outl, n+cryptolib.GCMTagSize)
			}
		}

		vectors := []string{"encrypt", "inject-crypto", "bad-cert", "good-cert"}
		for i := 0; i < cfg.Ops; i++ {
			vector := vectors[env.rng.Intn(len(vectors))]
			label := fmt.Sprintf("op=%02d %s", i, vector)
			n := 16 + env.rng.Intn(240)
			b := env.before()

			switch vector {
			case "encrypt":
				encrypt(label, n)
				env.calm(label, b)
				r.event("%s len=%d ok", label, n)
			case "inject-crypto":
				// The injector fires inside the crypto domain mid-update;
				// the wrapper's guard absorbs it and the context domain is
				// discarded, so the wrapper must be re-initialized.
				// EncryptUpdate makes seven gated in-domain accesses; the
				// countdown must stay within that budget to guarantee firing.
				countdown := 1 + env.rng.Intn(4)
				armGated(lib, t, countdown, mem.CodePkuErr)
				c.Write(in, make([]byte, n))
				_, err := cr.EncryptUpdate(t, out, in, n)
				if c.FaultInjectorArmed() {
					c.SetFaultInjector(nil)
					r.failf("%s: injector did not fire within EncryptUpdate", label)
				}
				if abn := env.exited(label, b, err, cryptolib.OpenSSLUDI, sig.SIGSEGV, true); abn != nil && abn.Code != int(mem.CodePkuErr) {
					r.failf("%s: fault code %d, want SEGV_PKUERR", label, abn.Code)
				}
				env.auditOn(t, label)
				if err := cr.Reinit(t, key); err != nil {
					r.failf("%s: reinit failed: %v", label, err)
				}
				encrypt(label+" post-reinit", 64)
				env.auditOn(t, label+" post-reinit")
				r.event("%s countdown=%d rewind reinit", label, countdown)
			case "bad-cert":
				// CVE-2022-3786 analog absorbed by the verifier domain.
				_, err := v.Verify(t, cryptolib.MaliciousCertificate())
				env.exited(label, b, err, cryptolib.X509UDI, sig.SIGABRT, false)
				env.auditOn(t, label)
				r.event("%s SIGABRT rewind", label)
			case "good-cert":
				res, err := v.Verify(t, cryptolib.FormatCertificate("alice", "alice@example.com"))
				if err != nil {
					r.failf("%s: verify failed: %v", label, err)
				} else if !res.Valid {
					r.failf("%s: valid certificate rejected", label)
				}
				env.calm(label, b)
				r.event("%s valid", label)
			}
		}
		r.event("final rewinds=%d verifier-rewinds=%d", lib.Stats().Rewinds.Load(), v.Rewinds())
		return nil
	})
}
