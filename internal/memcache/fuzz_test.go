package memcache

import (
	"bufio"
	"bytes"
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
