package chaos

import (
	"fmt"
	"strings"

	"sdrad/internal/cryptolib"
	"sdrad/internal/httpd"
)

// certRequest builds a keep-alive GET carrying a client certificate in the
// X-Client-Cert header, the §V-C NGINX+OpenSSL integration under attack.
func certRequest(path string, cert []byte) []byte {
	return []byte("GET " + path + " HTTP/1.1\r\n" +
		"Host: chaos\r\n" +
		"X-Client-Cert: " + httpd.EncodeCertHeader(cert) + "\r\n" +
		"Connection: keep-alive\r\n\r\n")
}

// runHTTPD drives the hardened httpd build with valid traffic, the
// CVE-2009-2629-style "/../" URI underflow, malicious client
// certificates (CVE-2022-3786 analog, verified in a nested domain),
// fuzz-mutated requests, and injector-raised PKU faults inside the parser
// domain. The mapped-bytes class separates rewind types: a parser-domain
// rewind leaves the parser heap unmapped while the verifier stays
// resident, and a verifier-domain rewind the reverse — the two states
// legitimately differ in mapped bytes.
func runHTTPD(cfg Config, r *Report) error {
	w, m, err := newHTTPD(cfg, r, httpd.Config{
		VerifyClientCerts: true,
		Files:             map[string]int{"/index.html": 512, "/about.html": 256},
	})
	if err != nil {
		return err
	}
	defer m.Stop()
	rng := w.rng

	// Warm up every lazily created domain before taking any mapped-bytes
	// baseline: the first cert-bearing request creates the verifier
	// domain, and the first plain request the parser domain.
	goodCert := cryptolib.FormatCertificate("alice", "alice@example.com")
	if status := httpStatus(w.do(certRequest("/index.html", goodCert))); status != "200" {
		return fmt.Errorf("chaos: cert warm-up request failed: %s", status)
	}

	vectors := []string{"get", "miss", "dotdot-attack", "bad-cert", "good-cert", "mutate", "inject-pku"}
	for i := 0; i < cfg.Ops; i++ {
		vector := vectors[rng.Intn(len(vectors))]
		label := fmt.Sprintf("op=%02d %s", i, vector)
		b := w.before()

		switch vector {
		case "get":
			path := "/index.html"
			if rng.Intn(2) == 0 {
				path = "/about.html"
			}
			if status := httpStatus(w.do(httpd.FormatRequest(path, true))); status != "200" {
				r.failf("%s: %s returned %s", label, path, status)
			}
			w.calm(label, b)
			r.event("%s %s 200", label, path)
		case "miss":
			status := httpStatus(w.do(httpd.FormatRequest(fmt.Sprintf("/nope-%d.html", rng.Intn(16)), true)))
			if status != "404" {
				r.failf("%s: want 404, got %s", label, status)
			}
			w.calm(label, b)
			r.event("%s %s", label, status)
		case "dotdot-attack":
			// CVE-2009-2629 analog: complex-URI normalization walks the
			// write pointer below the pool buffer. Must rewind.
			depth := 128 + rng.Intn(128)
			w.attack(label, "parser-rewind", httpd.FormatRequest("/"+strings.Repeat("../", depth)+"x", true))
			r.event("%s depth=%d rewind", label, depth)
		case "bad-cert":
			// CVE-2022-3786 analog: punycode decode overflow inside the
			// X.509 verifier domain. Must rewind; the paper's NGINX
			// integration answers 400 over a then-closed connection.
			status := httpStatus(w.do(certRequest("/index.html", cryptolib.MaliciousCertificate())))
			w.aborted(label, b)
			w.settle(label, "verifier-rewind")
			// Re-establish the verifier domain so later steady states see
			// it resident again, keeping the other classes comparable.
			if again := httpStatus(w.do(certRequest("/index.html", goodCert))); again != "200" {
				r.failf("%s: verifier did not recover: %s", label, again)
			}
			r.event("%s %s rewind", label, status)
		case "good-cert":
			if status := httpStatus(w.do(certRequest("/index.html", goodCert))); status != "200" {
				r.failf("%s: valid certificate rejected: %s", label, status)
			}
			w.calm(label, b)
			r.event("%s 200", label)
		case "mutate":
			w.mutate(label, "parser-rewind", httpd.FormatRequest("/index.html", true))
		case "inject-pku":
			// A hardened GET makes six gated in-domain accesses, so the
			// countdown must stay within that budget to guarantee firing.
			countdown := 1 + rng.Intn(4)
			w.injectPKU(label, "parser-rewind", countdown, httpd.FormatRequest("/index.html", true))
			r.event("%s countdown=%d rewind", label, countdown)
		}

		if crashed, cause := w.crashed(); crashed {
			return fmt.Errorf("chaos: worker process died at op %d: %v", i, cause)
		}
	}
	w.final()
	return nil
}
