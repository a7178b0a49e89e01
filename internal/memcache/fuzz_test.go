package memcache

import (
	"bufio"
	"bytes"
	"io"
	"testing"
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
