package httpd

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"sdrad/internal/core"
	"sdrad/internal/cryptolib"
	"sdrad/internal/proc"
)

// certMaster starts a master with client-cert verification enabled.
func certMaster(t *testing.T, v Variant) *Master {
	t.Helper()
	m, err := NewMaster(Config{
		Variant:           v,
		Workers:           1,
		Files:             map[string]int{"/secure.html": 256},
		VerifyClientCerts: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	return m
}

// certRequest builds a GET carrying a client certificate header.
func certRequest(path string, cert []byte) []byte {
	return []byte(fmt.Sprintf(
		"GET %s HTTP/1.1\r\nHost: x\r\nX-Client-Cert: %s\r\nConnection: keep-alive\r\n\r\n",
		path, EncodeCertHeader(cert)))
}

func TestClientCertAccepted(t *testing.T) {
	allVariants(t, func(t *testing.T, v Variant) {
		m := certMaster(t, v)
		c := m.Worker(0).NewConn()
		good := cryptolib.FormatCertificate("client-1", "c1@example.org")
		resp, _, err := c.Do(certRequest("/secure.html", good))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(resp), "HTTP/1.1 200") {
			t.Fatalf("resp = %q", resp[:40])
		}
	})
}

func TestClientCertRejected(t *testing.T) {
	allVariants(t, func(t *testing.T, v Variant) {
		m := certMaster(t, v)
		c := m.Worker(0).NewConn()
		bad := cryptolib.FormatCertificate("x", "not-an-email")
		resp, _, err := c.Do(certRequest("/secure.html", bad))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(resp), "HTTP/1.1 403") {
			t.Fatalf("resp = %q", resp[:40])
		}
	})
}

func TestNoCertHeaderStillServes(t *testing.T) {
	m := certMaster(t, VariantSDRaD)
	c := m.Worker(0).NewConn()
	resp, _, err := c.Do(FormatRequest("/secure.html", true))
	if err != nil || !strings.HasPrefix(string(resp), "HTTP/1.1 200") {
		t.Fatalf("resp = %q err = %v", resp[:min(len(resp), 40)], err)
	}
}

func TestCVE2022_3786_BaselineKillsWorker(t *testing.T) {
	// The paper's motivation for isolating the X.509 API: the punycode
	// stack overflow in certificate checking is a DoS against the whole
	// worker.
	m := certMaster(t, VariantVanilla)
	w := m.Worker(0)
	good := w.NewConn()
	if resp, _, err := good.Do(FormatRequest("/secure.html", true)); err != nil ||
		!strings.HasPrefix(string(resp), "HTTP/1.1 200") {
		t.Fatal("pre-attack request failed")
	}

	evil := w.NewConn()
	_, _, err := evil.Do(certRequest("/secure.html", cryptolib.MaliciousCertificate()))
	if !errors.Is(err, ErrWorkerDown) {
		t.Fatalf("attack err = %v, want worker down", err)
	}
	crashed, cause := w.Crashed()
	if !crashed {
		t.Fatal("worker survived the malicious certificate")
	}
	t.Logf("crash cause: %v", cause)
}

func TestCVE2022_3786_SDRaDAbsorbs(t *testing.T) {
	// §V-C: "We verified that the CVE triggers a rewind and NGINX closes
	// the related connection and reinitializes the OpenSSL domain before
	// continuing execution."
	m := certMaster(t, VariantSDRaD)
	w := m.Worker(0)
	good := w.NewConn()

	evil := w.NewConn()
	resp, closed, err := evil.Do(certRequest("/secure.html", cryptolib.MaliciousCertificate()))
	if err != nil {
		t.Fatalf("transport err: %v", err)
	}
	if !closed {
		t.Fatalf("attacker connection not closed (resp %q)", resp[:min(len(resp), 40)])
	}
	if crashed, cause := w.Crashed(); crashed {
		t.Fatalf("worker crashed: %v", cause)
	}
	if w.Rewinds() != 1 {
		t.Errorf("rewinds = %d", w.Rewinds())
	}

	// Other clients keep working — including further certificate checks
	// (the OpenSSL domain was reinitialized).
	goodCert := cryptolib.FormatCertificate("client-2", "c2@example.org")
	respGood, _, err := good.Do(certRequest("/secure.html", goodCert))
	if err != nil || !strings.HasPrefix(string(respGood), "HTTP/1.1 200") {
		t.Fatalf("post-attack verify: %q err=%v", respGood[:min(len(respGood), 40)], err)
	}
}

func TestRepeatedCertAttacksAndParserAttacksTogether(t *testing.T) {
	// Both sandboxes on one worker: the parser domain and the verifier
	// domain recover independently.
	m := certMaster(t, VariantSDRaD)
	w := m.Worker(0)
	survivor := w.NewConn()
	for i := 0; i < 3; i++ {
		evilCert := w.NewConn()
		if _, closed, err := evilCert.Do(certRequest("/x", cryptolib.MaliciousCertificate())); err != nil || !closed {
			t.Fatalf("cert attack %d: closed=%v err=%v", i, closed, err)
		}
		evilURI := w.NewConn()
		if _, closed, err := evilURI.Do(FormatRequest("/"+strings.Repeat("../", 200), true)); err != nil || !closed {
			t.Fatalf("uri attack %d: closed=%v err=%v", i, closed, err)
		}
		resp, _, err := survivor.Do(certRequest("/secure.html", cryptolib.FormatCertificate("s", "s@ok.io")))
		if err != nil || !strings.HasPrefix(string(resp), "HTTP/1.1 200") {
			t.Fatalf("survivor broken after round %d: %v", i, err)
		}
	}
	if w.Rewinds() != 6 {
		t.Errorf("rewinds = %d, want 6", w.Rewinds())
	}
}

func TestVerifierOutOfMemoryIsAnErrorNotAVerdict(t *testing.T) {
	// A verifier that could not allocate its certificate buffer judged
	// nothing: the request fails with heap exhaustion instead of a 403
	// telling a valid client its certificate was refused, and the next
	// verification, with memory back, admits it.
	m := certMaster(t, VariantSDRaD)
	w := m.Worker(0)
	c := w.NewConn()
	good := certRequest("/secure.html", cryptolib.FormatCertificate("client-1", "c1@example.org"))
	starve := func(fn func(core.UDI, uint64) error) {
		if err := w.Inspect(func(*proc.Thread) error { w.Library().SetAllocFault(fn); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	starve(func(udi core.UDI, _ uint64) error {
		if udi == cryptolib.X509UDI {
			return errors.New("injected")
		}
		return nil
	})
	if resp, closed, err := c.Do(good); !errors.Is(err, core.ErrHeapExhausted) || closed || len(resp) > 0 {
		t.Fatalf("starved verifier: %q closed=%v err=%v, want heap exhaustion", resp, closed, err)
	}
	starve(nil)
	if resp, _, err := c.Do(good); err != nil || !strings.HasPrefix(string(resp), "HTTP/1.1 200") {
		t.Fatalf("verifier with memory back answered %q, err %v", resp[:min(len(resp), 40)], err)
	}
}

func TestOversizedCertRejected(t *testing.T) {
	m := certMaster(t, VariantSDRaD)
	c := m.Worker(0).NewConn()
	huge := cryptolib.FormatCertificate("x", "u@"+strings.Repeat("a", 5000)+".com")
	resp, _, err := c.Do(certRequest("/secure.html", huge))
	// Either the request is too large for the connection buffer or the
	// certificate is rejected; the worker must survive both ways.
	if err == nil && !strings.HasPrefix(string(resp), "HTTP/1.1 403") {
		t.Fatalf("resp = %q", resp[:min(len(resp), 40)])
	}
	if crashed, _ := m.Worker(0).Crashed(); crashed {
		t.Fatal("worker crashed")
	}
}

func TestCertHeaderRoundTrip(t *testing.T) {
	cert := cryptolib.FormatCertificate("cn", "e@x.y")
	enc := EncodeCertHeader(cert)
	if strings.ContainsAny(enc, "\r\n") {
		t.Error("encoded header contains line breaks")
	}
	if string(DecodeCertHeader(enc)) != string(cert) {
		t.Error("round trip failed")
	}
}
