package memcache

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
)

// FormatSet builds a text-protocol set request.
func FormatSet(key string, value []byte, flags uint32) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "set %s %d 0 %d\r\n", key, flags, len(value))
	b.Write(value)
	b.WriteString("\r\n")
	return b.Bytes()
}

// FormatGet builds a get request.
func FormatGet(key string) []byte {
	return []byte("get " + key + "\r\n")
}

// FormatDelete builds a delete request.
func FormatDelete(key string) []byte {
	return []byte("delete " + key + "\r\n")
}

// FormatBSet builds a binary-set request whose header claims claimedLen
// body bytes while actually carrying data. A claimedLen larger than the
// staging buffer triggers the planted CVE-2011-4971 analog.
func FormatBSet(key string, claimedLen int, data []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "bset %s %d %d\r\n", key, claimedLen, len(data))
	b.Write(data)
	b.WriteString("\r\n")
	return b.Bytes()
}

// ParseGetValue extracts the first value from a get response, reporting
// ok=false on a miss.
func ParseGetValue(resp []byte) (value []byte, flags uint32, ok bool) {
	if !bytes.HasPrefix(resp, []byte("VALUE ")) {
		return nil, 0, false
	}
	nl := bytes.Index(resp, []byte("\r\n"))
	if nl < 0 {
		return nil, 0, false
	}
	header := bytes.Fields(resp[:nl])
	if len(header) != 4 {
		return nil, 0, false
	}
	f, err1 := strconv.ParseUint(string(header[2]), 10, 32)
	n, err2 := strconv.Atoi(string(header[3]))
	if err1 != nil || err2 != nil || nl+2+n > len(resp) {
		return nil, 0, false
	}
	return resp[nl+2 : nl+2+n], uint32(f), true
}

// ServeListener accepts TCP (or net.Pipe) connections and speaks the text
// protocol, bridging each network connection to a simulated server
// connection. It returns when the listener closes or the server process
// dies. Intended for the runnable examples and cmd binaries; benchmarks
// drive the engine through Conn.Do directly.
func (s *Server) ServeListener(ln net.Listener) error {
	go func() {
		<-s.p.Done()
		_ = ln.Close()
	}()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.p.Killed() {
				return ErrServerDown
			}
			return err
		}
		go s.serveNetConn(nc)
	}
}

// serveNetConn reads framed requests off one network connection and
// round-trips them through the engine. A stopped server closes the
// connection without a reply: a SERVER_ERROR line would read as a served
// exchange to a router, which counts any reply as the backend answering.
func (s *Server) serveNetConn(nc net.Conn) {
	defer func() { _ = nc.Close() }()
	conn := s.NewConn()
	r := bufio.NewReader(nc)
	for {
		req, err := ReadRequest(r)
		if err != nil {
			return
		}
		resp, closed, err := conn.Do(req)
		if errors.Is(err, ErrServerDown) {
			return
		}
		if err != nil {
			fmt.Fprintf(nc, "SERVER_ERROR %v\r\n", err)
			return
		}
		if len(resp) > 0 {
			if _, err := nc.Write(resp); err != nil {
				return
			}
		}
		if closed {
			return
		}
	}
}

// ReadRequest frames one request off a client byte stream. Binary frames
// (magic 0x80) carry a 24-byte header; the transport reads
// min(total-body, sane-cap) further bytes — the parser, not the
// transport, trusts the header's length field. Text requests are a
// command line plus, for set/bset, the declared body; the bset frame
// carries the actual byte count in its fourth token so a malicious
// client can claim an arbitrary body length in the third. The cluster
// router shares this framing so a front-end and a backend agree on
// request boundaries byte for byte.
func ReadRequest(r *bufio.Reader) ([]byte, error) {
	magic, err := r.Peek(1)
	if err != nil {
		return nil, err
	}
	if magic[0] == BinMagicRequest {
		hdr := make([]byte, binHeaderSize)
		if _, err := io.ReadFull(r, hdr); err != nil {
			return nil, err
		}
		total := int(uint32(hdr[8])<<24 | uint32(hdr[9])<<16 | uint32(hdr[10])<<8 | uint32(hdr[11]))
		// The wire carries at most what a frame can sanely hold; the
		// claimed length is still what the parser sees in the header.
		if total < 0 || total > 1<<20 {
			total = r.Buffered()
		}
		body := make([]byte, total)
		if _, err := io.ReadFull(r, body); err != nil {
			return nil, err
		}
		return append(hdr, body...), nil
	}
	line, err := r.ReadBytes('\n')
	if err != nil {
		return nil, err
	}
	req := append([]byte(nil), line...)
	fields := bytes.Fields(bytes.TrimRight(line, "\r\n"))
	if len(fields) == 0 {
		return req, nil
	}
	var bodyLen int
	switch string(fields[0]) {
	case "set", "add", "replace":
		if len(fields) >= 5 {
			bodyLen, _ = strconv.Atoi(string(fields[4]))
		}
	case "bset":
		if len(fields) >= 4 {
			bodyLen, _ = strconv.Atoi(string(fields[3]))
		}
	default:
		return req, nil
	}
	if bodyLen < 0 || bodyLen > 1<<20 {
		return req, nil
	}
	body := make([]byte, bodyLen+2) // data + trailing \r\n
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return append(req, body...), nil
}

// ReadReply frames one text-protocol reply off a server byte stream: a
// single terminal line for most commands, or — when the first line opens
// a multi-line reply (VALUE or STAT) — everything through the END line.
// An EOF mid-reply surfaces as io.ErrUnexpectedEOF so callers can tell a
// torn reply from a cleanly closed connection.
func ReadReply(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadBytes('\n')
	if err != nil {
		if err == io.EOF && len(line) > 0 {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	reply := append([]byte(nil), line...)
	for {
		fields := bytes.Fields(bytes.TrimRight(line, "\r\n"))
		if len(fields) == 0 {
			return reply, nil
		}
		switch string(fields[0]) {
		case "VALUE":
			// VALUE <key> <flags> <bytes> [<cas>]: consume the data block,
			// then continue with the next line (another VALUE, or END).
			if len(fields) < 4 {
				return reply, nil
			}
			n, convErr := strconv.Atoi(string(fields[3]))
			if convErr != nil || n < 0 || n > 1<<20 {
				return reply, nil
			}
			body := make([]byte, n+2) // data + \r\n
			if _, err := io.ReadFull(r, body); err != nil {
				if err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				return nil, err
			}
			reply = append(reply, body...)
		case "STAT":
			// stats replies: STAT lines until END.
		default:
			// Terminal line: single-line reply, or the END of a multi-line
			// one.
			return reply, nil
		}
		line, err = r.ReadBytes('\n')
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		reply = append(reply, line...)
	}
}
