package httpd

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"sdrad/internal/cryptolib"
	"sdrad/internal/proc"
)

// FuzzHardenedRequest sends arbitrary client bytes to one hardened worker
// with client-certificate checking on, each input on a fresh connection,
// cut after every blank line into a pipeline. Whatever the bytes do — a
// parser trap (CVE-2009-2629), a verifier trap (CVE-2022-3786), garbage —
// the worker must absorb it: no transport error and no crash, every
// answer an HTTP/1.1 status line or a closed connection, at most one
// rewind per connection, a survivor connection still served, and a clean
// monitor audit on the serving thread.
func FuzzHardenedRequest(f *testing.F) {
	m, err := NewMaster(Config{Variant: VariantSDRaD, Workers: 1, Files: testFiles, VerifyClientCerts: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(m.Stop)
	w := m.Worker(0)
	survivor := w.NewConn()

	f.Add(FormatRequest("/index.html", true))
	f.Add(FormatRequest(attackURI(), true))
	f.Add(append(FormatRequest("/index.html", true), FormatRequest("/big.bin", false)...))
	f.Add(certRequest("/index.html", cryptolib.MaliciousCertificate()))
	f.Fuzz(func(t *testing.T, data []byte) {
		rewinds := w.Rewinds()
		conn := w.NewConn()
		for i, r := range conn.DoPipeline(splitRequests(data)) {
			switch {
			case r.Err != nil && !errors.Is(r.Err, ErrTooLarge) && !errors.Is(r.Err, ErrConnClosed):
				t.Fatalf("request %d: %v", i, r.Err)
			case len(r.Resp) > 0 && !bytes.HasPrefix(r.Resp, []byte("HTTP/1.1 ")):
				t.Fatalf("request %d answered %q", i, r.Resp[:min(len(r.Resp), 40)])
			case r.Err == nil && len(r.Resp) == 0 && !r.Closed:
				t.Fatalf("request %d: no answer and the connection still open", i)
			}
		}
		// Hang up, so a connection the input left open gives its buffers
		// back to the worker heap (it holds 128 connections).
		if _, closed, err := conn.Do(FormatRequest("/index.html", false)); !closed {
			t.Fatalf("hang-up left the connection open (err %v)", err)
		}
		if crashed, cause := w.Crashed(); crashed {
			t.Fatalf("worker crashed: %v", cause)
		}
		if n := w.Rewinds() - rewinds; n > 1 {
			t.Fatalf("one connection rewound %d times", n)
		}
		if resp := mustGet(t, survivor, "/index.html"); !strings.HasPrefix(resp, "HTTP/1.1 200") {
			t.Fatalf("survivor answered %q", resp[:min(len(resp), 40)])
		}
		var findings []string
		if err := w.Inspect(func(th *proc.Thread) error {
			findings = w.Library().Audit(th).Findings
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(findings) > 0 {
			t.Fatalf("audit findings: %v", findings)
		}
	})
}

// splitRequests cuts a client stream after every blank line; the tail
// after the last one, if any, is a request of its own.
func splitRequests(data []byte) [][]byte {
	var reqs [][]byte
	for {
		i := bytes.Index(data, []byte("\r\n\r\n"))
		if i < 0 {
			break
		}
		reqs = append(reqs, data[:i+4])
		data = data[i+4:]
	}
	if len(data) > 0 || len(reqs) == 0 {
		reqs = append(reqs, data)
	}
	return reqs
}
