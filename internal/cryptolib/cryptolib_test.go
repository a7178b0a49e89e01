package cryptolib

import (
	"bytes"
	"errors"
	"testing"

	"sdrad/internal/core"
	"sdrad/internal/mem"
	"sdrad/internal/proc"
	"sdrad/internal/sig"
	"sdrad/internal/stack"
	"sdrad/internal/telemetry"
)

var testKey = bytes.Repeat([]byte{0x42}, 32)

func newLibProc(t testing.TB) (*proc.Process, *core.Library) {
	t.Helper()
	p := proc.NewProcess("crypto-test", proc.WithSeed(3))
	lib, err := core.Setup(p)
	if err != nil {
		t.Fatal(err)
	}
	return p, lib
}

func TestEngineRoundTrip(t *testing.T) {
	p, lib := newLibProc(t)
	err := p.Attach("main", func(th *proc.Thread) error {
		c := th.CPU()
		eng := NewEngine()
		ctx, _ := lib.Malloc(th, core.RootUDI, CtxSize)
		keyBuf, _ := lib.Malloc(th, core.RootUDI, 32)
		c.Write(keyBuf, testKey)
		if err := eng.EncryptInit(c, ctx, keyBuf, 32); err != nil {
			return err
		}
		pt := []byte("attack at dawn, bring snacks")
		in, _ := lib.Malloc(th, core.RootUDI, uint64(len(pt)))
		out, _ := lib.Malloc(th, core.RootUDI, uint64(len(pt)+GCMTagSize))
		dec, _ := lib.Malloc(th, core.RootUDI, uint64(len(pt)))
		c.Write(in, pt)

		n, err := eng.EncryptUpdate(c, ctx, out, in, len(pt))
		if err != nil {
			return err
		}
		if n != len(pt)+GCMTagSize {
			t.Errorf("ct len = %d", n)
		}
		// Ciphertext differs from plaintext.
		if bytes.Equal(c.ReadBytes(out, len(pt)), pt) {
			t.Error("ciphertext equals plaintext")
		}
		nonce := eng.LastNonce(c, ctx)
		m, err := eng.DecryptUpdate(c, ctx, dec, out, n, nonce)
		if err != nil {
			return err
		}
		if m != len(pt) || !bytes.Equal(c.ReadBytes(dec, m), pt) {
			t.Errorf("decrypt round trip failed: %q", c.ReadBytes(dec, m))
		}
		// Tampered ciphertext fails authentication.
		c.WriteU8(out, c.ReadU8(out)^1)
		if _, err := eng.DecryptUpdate(c, ctx, dec, out, n, nonce); !errors.Is(err, ErrAuth) {
			t.Errorf("tamper err = %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEngineErrors(t *testing.T) {
	p, lib := newLibProc(t)
	err := p.Attach("main", func(th *proc.Thread) error {
		c := th.CPU()
		eng := NewEngine()
		ctx, _ := lib.Malloc(th, core.RootUDI, CtxSize)
		keyBuf, _ := lib.Malloc(th, core.RootUDI, 32)
		if err := eng.EncryptInit(c, ctx, keyBuf, 16); !errors.Is(err, ErrBadKeyLen) {
			t.Errorf("short key err = %v", err)
		}
		// Uninitialized context.
		out, _ := lib.Malloc(th, core.RootUDI, 64)
		if _, err := eng.EncryptUpdate(c, ctx, out, keyBuf, 8); !errors.Is(err, ErrBadContext) {
			t.Errorf("bad ctx err = %v", err)
		}
		// Truncated ciphertext.
		if err := eng.EncryptInit(c, ctx, keyBuf, 32); err != nil {
			return err
		}
		if _, err := eng.DecryptUpdate(c, out, ctx, keyBuf, 4, 1); !errors.Is(err, ErrAuth) && !errors.Is(err, ErrBadContext) {
			t.Errorf("short ct err = %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEngineScheduleCacheRebuild(t *testing.T) {
	// A second engine (fresh cache) must still decrypt using only the
	// context in simulated memory — the key truly lives there.
	p, lib := newLibProc(t)
	err := p.Attach("main", func(th *proc.Thread) error {
		c := th.CPU()
		eng1 := NewEngine()
		ctx, _ := lib.Malloc(th, core.RootUDI, CtxSize)
		keyBuf, _ := lib.Malloc(th, core.RootUDI, 32)
		c.Write(keyBuf, testKey)
		if err := eng1.EncryptInit(c, ctx, keyBuf, 32); err != nil {
			return err
		}
		pt := []byte("payload")
		in, _ := lib.Malloc(th, core.RootUDI, 16)
		out, _ := lib.Malloc(th, core.RootUDI, 64)
		dec, _ := lib.Malloc(th, core.RootUDI, 16)
		c.Write(in, pt)
		n, err := eng1.EncryptUpdate(c, ctx, out, in, len(pt))
		if err != nil {
			return err
		}
		eng2 := NewEngine()
		m, err := eng2.DecryptUpdate(c, ctx, dec, out, n, eng1.LastNonce(c, ctx))
		if err != nil || !bytes.Equal(c.ReadBytes(dec, m), pt) {
			t.Errorf("fresh engine decrypt: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWrapperModesRoundTrip(t *testing.T) {
	for _, mode := range []Mode{ModeNative, ModeCopyOut, ModeCopyBoth, ModeShared} {
		t.Run(mode.String(), func(t *testing.T) {
			p, lib := newLibProc(t)
			err := p.Attach("main", func(th *proc.Thread) error {
				c := th.CPU()
				eng := NewEngine()
				cr, err := NewCrypto(th, lib, eng, mode, testKey, 4096)
				if err != nil {
					return err
				}
				pt := bytes.Repeat([]byte("abcd"), 256) // 1 KiB
				var in, out mem.Addr
				if mode == ModeShared {
					in = cr.DataBuf()
					out = cr.SharedOut()
				} else {
					in, _ = lib.Malloc(th, core.RootUDI, uint64(len(pt)))
					out, _ = lib.Malloc(th, core.RootUDI, uint64(len(pt))+GCMTagSize)
				}
				c.Write(in, pt)
				n, err := cr.EncryptUpdate(th, out, in, len(pt))
				if err != nil {
					return err
				}
				if n != len(pt)+GCMTagSize {
					t.Errorf("outl = %d", n)
				}
				ct := c.ReadBytes(out, len(pt))
				if bytes.Equal(ct, pt) {
					t.Error("no encryption happened")
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestKeyMaterialInaccessibleToParent(t *testing.T) {
	// The crypto domain is NOT accessible: the parent reading the
	// context is a PKU violation (and, from the root domain, fatal).
	p, lib := newLibProc(t)
	err := p.Attach("main", func(th *proc.Thread) error {
		eng := NewEngine()
		cr, err := NewCrypto(th, lib, eng, ModeCopyBoth, testKey, 1024)
		if err != nil {
			return err
		}
		_ = th.CPU().ReadU64(cr.ContextAddr() + ctxOffKey) // must trap
		t.Error("unreachable: key read succeeded")
		return nil
	})
	var crash *proc.CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("err = %v, want crash", err)
	}
	if crash.Info.Code != int(mem.CodePkuErr) {
		t.Errorf("code = %d, want SEGV_PKUERR", crash.Info.Code)
	}
}

// The wrapper's shared data domain is in every thread's policy, so
// NewCrypto builds it only on the library's lone live thread: with a
// sibling live it is refused, and it succeeds once the sibling exits.
func TestNewCryptoRefusedWithALiveSibling(t *testing.T) {
	p, lib := newLibProc(t)
	err := p.Attach("main", func(th *proc.Thread) error {
		started, release := make(chan struct{}), make(chan struct{})
		sib := p.Spawn("sibling", func(*proc.Thread) error {
			close(started)
			<-release
			return nil
		})
		<-started
		_, err := NewCrypto(th, lib, NewEngine(), ModeCopyBoth, testKey, 128)
		close(release)
		if jerr := sib.Join(); jerr != nil {
			return jerr
		}
		if !errors.Is(err, core.ErrSharedTopology) {
			t.Errorf("NewCrypto with a live sibling: err = %v, want ErrSharedTopology", err)
		}
		_, err = NewCrypto(th, lib, NewEngine(), ModeCopyBoth, testKey, 128)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWrapperInputTooLarge(t *testing.T) {
	p, lib := newLibProc(t)
	err := p.Attach("main", func(th *proc.Thread) error {
		cr, err := NewCrypto(th, lib, NewEngine(), ModeCopyBoth, testKey, 128)
		if err != nil {
			return err
		}
		in, _ := lib.Malloc(th, core.RootUDI, 256)
		out, _ := lib.Malloc(th, core.RootUDI, 512)
		if _, err := cr.EncryptUpdate(th, out, in, 256); err == nil {
			t.Error("oversized input accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVerifyGoodCertificates(t *testing.T) {
	p, lib := newLibProc(t)
	err := p.Attach("main", func(th *proc.Thread) error {
		v := NewVerifier(lib, 4096)
		for _, tc := range []struct {
			cn, email string
		}{
			{"alice", "alice@example.com"},
			{"bob", "bob@mail.example.org"},
			{"idn", "user@xn--c-eka.example"}, // short punycode: fits
		} {
			res, err := v.Verify(th, FormatCertificate(tc.cn, tc.email))
			if err != nil {
				t.Errorf("%s: %v", tc.email, err)
				continue
			}
			if !res.Valid || res.CN != tc.cn || res.Email != tc.email {
				t.Errorf("%s: result %+v", tc.email, res)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVerifyMalformedCertificates(t *testing.T) {
	p, lib := newLibProc(t)
	err := p.Attach("main", func(th *proc.Thread) error {
		v := NewVerifier(lib, 4096)
		for _, cert := range [][]byte{
			[]byte("JUNK=1\n"),
			FormatCertificate("", "a@b.c"),
			FormatCertificate("x", "no-at-sign"),
			FormatCertificate("x", "@nodomain"),
			FormatCertificate("x", "trailing@"),
		} {
			if _, err := v.Verify(th, cert); !errors.Is(err, ErrBadCertificate) {
				t.Errorf("%q: err = %v", cert, err)
			}
		}
		if _, err := v.Verify(th, make([]byte, 8192)); !errors.Is(err, ErrBadCertificate) {
			t.Errorf("oversized err = %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCVE2022_3786_IsolatedRewind(t *testing.T) {
	// The isolated verifier absorbs the stack overflow: the canary fires
	// inside the domain, the guard rewinds, and verification keeps
	// working afterwards.
	p, lib := newLibProc(t)
	err := p.Attach("main", func(th *proc.Thread) error {
		v := NewVerifier(lib, 4096)
		_, err := v.Verify(th, MaliciousCertificate())
		var abn *core.AbnormalExit
		if !errors.As(err, &abn) {
			t.Fatalf("err = %v, want AbnormalExit", err)
		}
		if abn.Signal != sig.SIGABRT {
			t.Errorf("signal = %v, want SIGABRT (stack protector)", abn.Signal)
		}
		if v.Rewinds() != 1 {
			t.Errorf("rewinds = %d", v.Rewinds())
		}
		// Subsequent verifications work (domain re-created).
		res, err := v.Verify(th, FormatCertificate("carol", "carol@ok.example"))
		if err != nil || !res.Valid {
			t.Errorf("post-attack verify: %+v, %v", res, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Killed() {
		t.Error("process died despite isolation")
	}
}

func TestCVE2022_3786_UnisolatedCrashes(t *testing.T) {
	// Without isolation the canary failure aborts the process — the DoS
	// the CVE advisory describes.
	p, lib := newLibProc(t)
	err := p.Attach("main", func(th *proc.Thread) error {
		cert := MaliciousCertificate()
		buf, err := lib.Malloc(th, core.RootUDI, uint64(len(cert)))
		if err != nil {
			return err
		}
		th.CPU().Write(buf, cert)
		// An app-managed stack in root memory (no domain).
		base, err := p.AddressSpace().MapAnon(64*1024, mem.ProtRW, lib.RootKey())
		if err != nil {
			return err
		}
		stk := stack.New(base, 64*1024, p.Rand64())
		_, verr := VerifyCertificate(th.CPU(), stk, buf, len(cert))
		return verr
	})
	var crash *proc.CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("err = %v, want crash", err)
	}
	if crash.Info.Signal != sig.SIGABRT {
		t.Errorf("signal = %v", crash.Info.Signal)
	}
	if !p.Killed() {
		t.Error("process survived")
	}
}

func TestRepeatedMaliciousCertificates(t *testing.T) {
	p, lib := newLibProc(t)
	err := p.Attach("main", func(th *proc.Thread) error {
		v := NewVerifier(lib, 4096)
		for i := 0; i < 4; i++ {
			if _, err := v.Verify(th, MaliciousCertificate()); err == nil {
				t.Fatalf("attack %d not detected", i)
			}
			if res, err := v.Verify(th, FormatCertificate("u", "u@ok.io")); err != nil || !res.Valid {
				t.Fatalf("recovery %d failed: %v", i, err)
			}
		}
		if v.Rewinds() != 4 {
			t.Errorf("rewinds = %d", v.Rewinds())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCryptoReinitAfterDomainLoss(t *testing.T) {
	// Simulates the paper's combined scenario: the X.509 verifier and
	// the cipher live in different domains; after the verifier rewinds,
	// the cipher still works. Then the cipher domain itself is destroyed
	// and re-initialized with a fresh key (lost-session-keys scenario).
	p, lib := newLibProc(t)
	err := p.Attach("main", func(th *proc.Thread) error {
		c := th.CPU()
		eng := NewEngine()
		cr, err := NewCrypto(th, lib, eng, ModeCopyBoth, testKey, 1024)
		if err != nil {
			return err
		}
		v := NewVerifier(lib, 4096)
		if _, err := v.Verify(th, MaliciousCertificate()); err == nil {
			t.Fatal("attack not detected")
		}
		// Cipher domain unaffected by the verifier's rewind.
		pt := []byte("still-works")
		in, _ := lib.Malloc(th, core.RootUDI, 32)
		out, _ := lib.Malloc(th, core.RootUDI, 64)
		c.Write(in, pt)
		if _, err := cr.EncryptUpdate(th, out, in, len(pt)); err != nil {
			t.Fatalf("cipher after verifier rewind: %v", err)
		}
		// Destroy and re-create the crypto domain with a new key.
		if err := lib.Destroy(th, OpenSSLUDI, core.NoHeapMerge); err != nil {
			return err
		}
		newKey := bytes.Repeat([]byte{0x17}, 32)
		if err := cr.Reinit(th, newKey); err != nil {
			return err
		}
		if _, err := cr.EncryptUpdate(th, out, in, len(pt)); err != nil {
			t.Fatalf("cipher after reinit: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFaultAnywhereInEncryptUpdateRewinds faults EncryptUpdate's k-th
// access inside the crypto domain, for every k until the fault no longer
// fires inside the call: each is one SEGV_PKUERR rewind of OpenSSLUDI with
// one forensics report agreeing with the fault log, a clean audit, and a
// wrapper that encrypts again once re-initialized (the paper's §V-B).
func TestFaultAnywhereInEncryptUpdateRewinds(t *testing.T) {
	rec := telemetry.New(telemetry.Options{})
	p := proc.NewProcess("crypto-test", proc.WithSeed(3))
	lib, err := core.Setup(p, core.WithScrubOnDiscard(true), core.WithTelemetry(rec))
	if err != nil {
		t.Fatal(err)
	}
	err = p.Attach("main", func(th *proc.Thread) error {
		c := th.CPU()
		cr, err := NewCrypto(th, lib, NewEngine(), ModeCopyBoth, testKey, 1024)
		if err != nil {
			return err
		}
		in, _ := lib.Malloc(th, core.RootUDI, 256)
		out, _ := lib.Malloc(th, core.RootUDI, 256+GCMTagSize)
		audit := func(k int) {
			if rep := lib.Audit(th); !rep.Ok() {
				t.Errorf("k=%d: audit: %v", k, rep.Findings)
			}
		}
		k := 1
		for ; ; k++ {
			n := 0
			c.SetFaultInjector(func(addr mem.Addr, kind mem.AccessKind) *mem.Fault {
				if lib.Current(th) == core.RootUDI || addr&^(mem.PageSize-1) == lib.MonitorBase() {
					return nil
				}
				if n++; n < k {
					return nil
				}
				return &mem.Fault{Kind: kind, Code: mem.CodePkuErr, PKey: lib.RootKey()}
			})
			reports := rec.Forensics().Added()
			_, err := cr.EncryptUpdate(th, out, in, 200)
			if c.FaultInjectorArmed() {
				c.SetFaultInjector(nil)
				if err != nil {
					t.Fatalf("k=%d: the fault did not fire, yet: %v", k, err)
				}
				break
			}
			var abn *core.AbnormalExit
			if !errors.As(err, &abn) || abn.FailedUDI != OpenSSLUDI || abn.Signal != sig.SIGSEGV || abn.Code != int(mem.CodePkuErr) {
				t.Fatalf("k=%d: %v, want a SEGV_PKUERR abnormal exit of the crypto domain", k, err)
			}
			recs := p.AddressSpace().RecentFaults()
			rep, _ := rec.Forensics().Last()
			if f := recs[len(recs)-1]; rec.Forensics().Added() != reports+1 || !f.Injected || rep.SiCode != int(f.Code) || rep.Addr != uint64(f.Addr) {
				t.Errorf("k=%d: %d reports, report %s at %#x, fault log %v at %#x injected=%v", k,
					rec.Forensics().Added()-reports, rep.SiCodeName, rep.Addr, f.Code, uint64(f.Addr), f.Injected)
			}
			audit(k)
			if err := cr.Reinit(th, testKey); err != nil {
				t.Fatalf("k=%d: reinit: %v", k, err)
			}
			if n, err := cr.EncryptUpdate(th, out, in, 200); err != nil || n != 200+GCMTagSize {
				t.Fatalf("k=%d: encrypt after reinit gave %d bytes, %v", k, n, err)
			}
			audit(k)
		}
		t.Logf("%d fault points", k-1)
		if k == 1 || lib.Stats().Rewinds.Load() != int64(k-1) {
			t.Errorf("%d rewinds for %d fault points", lib.Stats().Rewinds.Load(), k-1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestModeString(t *testing.T) {
	for _, m := range []Mode{ModeNative, ModeCopyOut, ModeCopyBoth, ModeShared, Mode(99)} {
		if m.String() == "" {
			t.Error("empty mode string")
		}
	}
}
