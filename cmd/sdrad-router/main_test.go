package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"sdrad/internal/cluster"
	"sdrad/internal/memcache"
)

func TestRejectedArguments(t *testing.T) {
	for name, args := range map[string][]string{
		"unknown flag":         {"-nope"},
		"no backend":           {},
		"backend without addr": {"-backend", "b0"},
		"backend without name": {"-backend", "=127.0.0.1:1"},
		// Hot-key replication was deleted with its sketch; the flag must
		// not linger as a silent no-op.
		"-hot-k is gone": {"-backend", "b0=127.0.0.1:1", "-hot-k", "2"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("%s: %v accepted", name, args)
		}
	}
}

func TestRoutedGetOverTCP(t *testing.T) {
	srv, err := memcache.NewServer(memcache.Config{Variant: memcache.VariantSDRaD, Workers: 1, HashPower: 10, CacheBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.ServeListener(ln) }()
	if _, _, err := srv.NewConn().Do(memcache.FormatSet("k", []byte("routed"), 0)); err != nil {
		t.Fatal(err)
	}

	// The router binds port 0 and reports the address on its first line.
	pr, pw := io.Pipe()
	go func() {
		pw.CloseWithError(run([]string{"-addr", "127.0.0.1:0", "-poll-interval", "0",
			"-backend", "b0=" + ln.Addr().String()}, pw))
	}()
	out := bufio.NewReader(pr)
	line, err := out.ReadString('\n')
	if err != nil {
		t.Fatalf("router did not start: %v", err)
	}
	go func() { _, _ = io.Copy(io.Discard, out) }()
	var addr string
	if _, err := fmt.Sscanf(line, "sdrad-router listening on %s", &addr); err != nil {
		t.Fatalf("first line %q does not name the listen address: %v", line, err)
	}
	c, err := cluster.Dial(addr, time.Second, time.Second)
	if err != nil {
		t.Fatalf("dial router: %v", err)
	}
	defer func() { _ = c.Close() }()
	rep, err := c.Do(memcache.FormatGet("k"))
	if val, _, ok := memcache.ParseGetValue(rep); err != nil || !ok || string(val) != "routed" {
		t.Fatalf("routed get = %q err=%v, want the backend's value", rep, err)
	}
}
