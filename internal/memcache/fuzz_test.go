package memcache

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"sdrad/internal/proc"
)

// FuzzReadRequest feeds arbitrary client streams to the request framer
// the router and the backend share. Whatever the bytes claim, framing
// must only ever cut the stream: every frame is non-empty, and the frames
// read so far concatenate to a prefix of the input — nothing invented,
// dropped or reordered, so a front-end and a backend agree on request
// boundaries byte for byte.
func FuzzReadRequest(f *testing.F) {
	f.Add(FormatSet("k", []byte("value"), 7))
	f.Add(FormatGet("k"))
	f.Add(append(FormatSet("a", []byte("1"), 0), FormatGet("a")...))
	f.Add(FormatBinarySet("k", []byte("v"), 0, HonestBinaryBodyLen("k", []byte("v"))))
	f.Add(FormatBSet("atk", 1<<20, nil)) // CVE-2011-4971 analog
	f.Add([]byte("append k 0 0 5\r\nhello\r\n"))
	f.Add([]byte("prepend k 0 0 5\r\nhello\r\n"))
	f.Add([]byte("cas k 0 0 5 42\r\nhello\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		var framed []byte
		for {
			req, err := ReadRequest(r)
			if err != nil {
				return
			}
			if len(req) == 0 {
				t.Fatalf("empty frame after %d bytes of %q", len(framed), data)
			}
			framed = append(framed, req...)
			if !bytes.HasPrefix(data, framed) {
				t.Fatalf("frames %q are not a prefix of the input %q", framed, data)
			}
		}
	})
}

// FuzzReadReply feeds arbitrary server streams to the reply framer the
// router reassembles backend replies with. Every reply is non-empty, the
// replies read so far concatenate to a prefix of the input, and a stream
// that ends inside a reply surfaces as io.ErrUnexpectedEOF: a clean
// io.EOF only ever follows the last byte, so a torn reply never passes
// for a short one.
func FuzzReadReply(f *testing.F) {
	f.Add([]byte("VALUE k 7 5\r\nvalue\r\nEND\r\n"))
	f.Add([]byte("STAT pid 1\r\nSTAT curr_items 3\r\nEND\r\n"))
	f.Add([]byte("SERVER_ERROR out of memory storing object\r\nSTORED\r\n"))
	f.Add([]byte("VALUE atk 0 16777216\r\npayload\r\nEND\r\n")) // CVE-2011-4971 analog
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		var framed []byte
		for {
			reply, err := ReadReply(r)
			switch {
			case err == io.EOF:
				if len(framed) != len(data) {
					t.Fatalf("clean EOF after %d of %d bytes of %q", len(framed), len(data), data)
				}
				return
			case err == io.ErrUnexpectedEOF:
				if len(framed) == len(data) {
					t.Fatalf("torn reply reported with no bytes left in %q", data)
				}
				return
			case err != nil:
				t.Fatalf("error %v on %q", err, data)
			}
			if len(reply) == 0 {
				t.Fatalf("empty reply after %d bytes of %q", len(framed), data)
			}
			framed = append(framed, reply...)
			if !bytes.HasPrefix(data, framed) {
				t.Fatalf("replies %q are not a prefix of the input %q", framed, data)
			}
		}
	})
}

// FuzzHardenedRequest sends arbitrary client bytes to one hardened worker,
// each input on a fresh connection, cut by the request framer into a
// pipeline. Whatever the bytes do — a CVE-2011-4971 trap, a malformed or
// binary frame, garbage — the worker must absorb it: no transport error
// and no crash, every reply a binary frame or a complete text line, at
// most one rewind per connection, a survivor connection's get still
// answered, and a clean library audit and shard audit on the serving
// thread.
func FuzzHardenedRequest(f *testing.F) {
	s, err := NewServer(Config{Variant: VariantSDRaD, Workers: 1, HashPower: 10, CacheBytes: 4 << 20})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Stop)
	survivor := s.NewConn()
	if _, _, err := survivor.Do(FormatSet("survivor", []byte("still-here"), 0)); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte("set a 1 0 5\r\nalpha\r\nget a\r\ngets a\r\nset n 0 0 2\r\n10\r\nincr n 5\r\n" +
		"append a 0 0 5\r\n-tail\r\ncas a 3 0 5 1\r\nomega\r\ndelete n\r\nget n\r\n"))
	f.Add(append(FormatSet("c", []byte("gamma"), 4), FormatBSet("x", 1<<20, nil)...)) // CVE-2011-4971 analog
	f.Add(FormatBinarySet("k", []byte("v"), 0, HonestBinaryBodyLen("k", []byte("v"))))
	f.Fuzz(func(t *testing.T, data []byte) {
		rewinds := s.Rewinds()
		conn := s.NewConn()
		for i, r := range conn.DoPipeline(splitRequests(data)) {
			if (r.Err != nil && !errors.Is(r.Err, ErrRequestTooLarge) && !errors.Is(r.Err, ErrConnClosed)) ||
				(len(r.Resp) > 0 && r.Resp[0] != BinMagicResponse && !bytes.HasSuffix(r.Resp, []byte("\r\n"))) {
				t.Fatalf("request %d: %q, err %v", i, r.Resp[:min(len(r.Resp), 40)], r.Err)
			}
		}
		// Hang up, so a connection the input left open gives its buffers
		// back to root memory.
		if _, closed, err := conn.Do([]byte("quit\r\n")); !closed {
			t.Fatalf("hang-up left the connection open (err %v)", err)
		}
		if crashed, cause := s.Crashed(); crashed || s.Rewinds()-rewinds > 1 {
			t.Fatalf("crashed %v (%v), %d rewinds for one connection", crashed, cause, s.Rewinds()-rewinds)
		}
		if resp, _, err := survivor.Do(FormatGet("survivor")); err != nil || !bytes.HasPrefix(resp, []byte("VALUE survivor ")) {
			t.Fatalf("survivor answered %q (err %v)", resp[:min(len(resp), 40)], err)
		}
		if err := survivor.Inspect(func(th *proc.Thread) error {
			if rep := s.Library().Audit(th); !rep.Ok() {
				return fmt.Errorf("audit findings %v", rep.Findings)
			}
			return s.Storage().AuditShards(th.CPU())
		}); err != nil {
			t.Fatal(err)
		}
	})
}

// splitRequests cuts a client stream into the requests the framer finds;
// what it cannot frame is one request of its own.
func splitRequests(data []byte) (reqs [][]byte) {
	r := bufio.NewReader(bytes.NewReader(data))
	n := 0
	for req, err := ReadRequest(r); err == nil; req, err = ReadRequest(r) {
		reqs, n = append(reqs, req), n+len(req)
	}
	if n < len(data) || len(reqs) == 0 {
		reqs = append(reqs, data[n:])
	}
	return reqs
}
