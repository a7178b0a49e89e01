package memcache

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// newTCPServer starts a hardened server behind a loopback listener and
// returns its address.
func newTCPServer(t *testing.T) (*Server, string) {
	t.Helper()
	s, err := NewServer(Config{
		Variant:    VariantSDRaD,
		Workers:    1,
		HashPower:  10,
		CacheBytes: 4 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Stop()
		t.Fatal(err)
	}
	go func() { _ = s.ServeListener(ln) }()
	t.Cleanup(func() { s.Stop(); _ = ln.Close() })
	return s, ln.Addr().String()
}

// TestConnServerCloseMidPipeline drives the engine pipeline through an
// attack-triggered close: the fault discards the whole in-flight batch
// (paper semantics — earlier items' writes never land), requests behind
// the close report ErrConnClosed, a fresh connection serves
// immediately, and a request behind a server Stop reports ErrServerDown
// rather than hanging.
func TestConnServerCloseMidPipeline(t *testing.T) {
	s, err := NewServer(Config{Variant: VariantSDRaD, Workers: 1, HashPower: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	conn := s.NewConn()
	res := conn.DoPipeline([][]byte{
		FormatSet("a", []byte("1"), 0),
		FormatBSet("atk", 1<<20, nil), // CVE analog: rewind + close
		FormatSet("b", []byte("2"), 0),
		FormatGet("a"),
	})
	if len(res) != 4 {
		t.Fatalf("%d results, want 4", len(res))
	}
	// One guard scope per batch: the rewind throws away everything in
	// flight, so even the request ahead of the attack reports closed and
	// its write never reached the store.
	for i, r := range res {
		if !r.Closed {
			t.Fatalf("result %d not closed after mid-batch fault: %+v", i, r)
		}
	}
	// The connection is dead for good: anything issued on it afterwards
	// reports ErrConnClosed.
	if _, _, err := conn.Do(FormatGet("a")); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("request on the closed connection: %v, want ErrConnClosed", err)
	}
	// The close is per-connection: a reconnect serves at once, and the
	// discarded batch left no partial writes.
	conn = s.NewConn()
	resp, closed, err := conn.Do(FormatGet("a"))
	if err != nil || closed {
		t.Fatalf("reconnect: closed=%v err=%v", closed, err)
	}
	if !bytes.Equal(resp, []byte("END\r\n")) {
		t.Fatalf("discarded batch leaked a write: %q", resp)
	}
	if resp, _, err := conn.Do(FormatSet("c", []byte("3"), 0)); err != nil || !bytes.HasPrefix(resp, []byte("STORED")) {
		t.Fatalf("server not serving after reconnect: %q err=%v", resp, err)
	}
	s.Stop()
	if _, _, err := conn.Do(FormatGet("c")); !errors.Is(err, ErrServerDown) {
		t.Fatalf("Do after Stop: %v, want ErrServerDown", err)
	}
}

// TestTCPCloseMidPipeline sends a pipelined burst over TCP with an
// attack in the middle: the replies before the attack arrive, the
// stream then ends cleanly (io.EOF, not a hang or a torn reply), and a
// reconnect finds the server healthy.
func TestTCPCloseMidPipeline(t *testing.T) {
	_, addr := newTCPServer(t)
	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
	var burst bytes.Buffer
	burst.Write(FormatSet("pre", []byte("kept"), 0))
	burst.Write(FormatBSet("atk", 1<<20, nil))
	burst.Write(FormatSet("post", []byte("dropped"), 0))
	if _, err := nc.Write(burst.Bytes()); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(nc)
	rep, err := ReadReply(r)
	if err != nil || !bytes.Equal(rep, []byte("STORED\r\n")) {
		t.Fatalf("pre-attack reply: %q err=%v", rep, err)
	}
	// The attack rewinds the backend and drops the connection; no reply
	// for it or anything behind it. A clean close, not a torn reply.
	if _, err := ReadReply(r); err != io.EOF {
		t.Fatalf("post-attack read: %v, want io.EOF", err)
	}

	// Reconnect-after-EOF: the server absorbed the rewind and keeps the
	// pre-attack write; the dropped request never reached the store.
	nc2, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc2.Close()
	_ = nc2.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc2.Write(append(FormatGet("pre"), FormatGet("post")...)); err != nil {
		t.Fatal(err)
	}
	r2 := bufio.NewReader(nc2)
	rep, err = ReadReply(r2)
	if err != nil {
		t.Fatal(err)
	}
	if val, _, ok := ParseGetValue(rep); !ok || string(val) != "kept" {
		t.Fatalf("pre-attack key after reconnect: %q", rep)
	}
	rep, err = ReadReply(r2)
	if err != nil || !bytes.Equal(rep, []byte("END\r\n")) {
		t.Fatalf("request behind the close leaked into the store: %q err=%v", rep, err)
	}
}

// TestTCPClosesOnOverlongLine: a client that sends more than MaxLineLen
// bytes with no newline gets no reply and a closed connection, and the
// server keeps serving the next one.
func TestTCPClosesOnOverlongLine(t *testing.T) {
	_, addr := newTCPServer(t)
	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc.Write(bytes.Repeat([]byte("x"), MaxLineLen)); err != nil {
		t.Fatal(err)
	}
	if rest, err := io.ReadAll(nc); err != nil || len(rest) != 0 {
		t.Fatalf("after an overlong line: %q, %v; want a clean close and no reply", rest, err)
	}
	nc2, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc2.Close()
	_ = nc2.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := nc2.Write(FormatGet("k")); err != nil {
		t.Fatal(err)
	}
	if rep, err := ReadReply(bufio.NewReader(nc2)); err != nil || string(rep) != "END\r\n" {
		t.Fatalf("next connection: %q, %v", rep, err)
	}
}

// TestTCPAfterStopWritesNothing sends a request on a connection accepted
// before Stop: a stopped server closes it without a reply. A SERVER_ERROR
// line here would read as an answered exchange to the cluster router and
// reset the dead backend's failure streak.
func TestTCPAfterStopWritesNothing(t *testing.T) {
	s, addr := newTCPServer(t)
	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(5 * time.Second))
	r := bufio.NewReader(nc)
	// One served exchange proves the bridge accepted the connection.
	if _, err := nc.Write(FormatSet("k", []byte("v"), 0)); err != nil {
		t.Fatal(err)
	}
	if rep, err := ReadReply(r); err != nil || !bytes.Equal(rep, []byte("STORED\r\n")) {
		t.Fatalf("set before Stop: %q err=%v", rep, err)
	}
	s.Stop()
	if _, err := nc.Write(FormatGet("k")); err != nil {
		t.Fatal(err)
	}
	if rest, err := io.ReadAll(r); err != nil || len(rest) != 0 {
		t.Fatalf("request after Stop read %q (err=%v), want EOF with zero bytes", rest, err)
	}
}

// TestReadReplyPartial feeds ReadReply torn streams: every mid-reply EOF
// must surface as io.ErrUnexpectedEOF so callers (the router's exchange
// path) can tell a torn reply from a clean close.
func TestReadReplyPartial(t *testing.T) {
	torn := []string{
		"VALUE k 0 10\r\nabc",          // EOF inside the data block
		"VALUE k 0 3\r\nabc\r\n",       // data complete, END missing
		"VALUE k 0 3\r\nabc\r\nVALUE ", // second VALUE header torn
		"STAT a 1\r\n",                 // STAT stream without END
		"STORED",                       // terminal line without newline
	}
	for _, s := range torn {
		if _, err := ReadReply(bufio.NewReader(strings.NewReader(s))); err != io.ErrUnexpectedEOF {
			t.Errorf("ReadReply(%q) err = %v, want io.ErrUnexpectedEOF", s, err)
		}
	}
	// A clean EOF before any bytes is io.EOF — the idle-connection case.
	if _, err := ReadReply(bufio.NewReader(strings.NewReader(""))); err != io.EOF {
		t.Errorf("ReadReply on empty stream: %v, want io.EOF", err)
	}
	// Intact replies for contrast.
	whole := []string{
		"STORED\r\n",
		"END\r\n",
		"VALUE k 0 3\r\nabc\r\nEND\r\n",
		"STAT a 1\r\nSTAT b 2\r\nEND\r\n",
	}
	for _, s := range whole {
		rep, err := ReadReply(bufio.NewReader(strings.NewReader(s)))
		if err != nil || string(rep) != s {
			t.Errorf("ReadReply(%q) = %q, %v", s, rep, err)
		}
	}
}
