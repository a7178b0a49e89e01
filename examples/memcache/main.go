// Example: the paper's Memcached case study (§V-A), side by side.
//
// Two cache servers — the unmodified baseline and the SDRaD-hardened
// build — each serve a well-behaved client while an attacker sends the
// CVE-2011-4971 analog (a bset request claiming a 64 MiB body). The
// baseline process dies, taking every client's cached data with it; the
// hardened build discards the attacked domain, closes the attacker's
// connection, and keeps serving.
//
//	go run ./examples/memcache
package main

import (
	"fmt"
	"os"

	"sdrad/internal/memcache"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "memcache example:", err)
		os.Exit(1)
	}
}

func run() error {
	for _, variant := range []memcache.Variant{memcache.VariantVanilla, memcache.VariantSDRaD} {
		fmt.Printf("=== %s build ===\n", variant)
		if err := scenario(variant); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

func scenario(variant memcache.Variant) error {
	s, err := memcache.NewServer(memcache.Config{
		Variant:    variant,
		Workers:    2,
		CacheBytes: 16 << 20,
	})
	if err != nil {
		return err
	}
	defer s.Stop()

	// A well-behaved client stores session state.
	alice := s.NewConn()
	resp, _, err := alice.Do(memcache.FormatSet("session:alice", []byte("cart=3 items"), 0))
	if err != nil {
		return err
	}
	fmt.Printf("alice: set session -> %q\n", trim(resp))

	// The attacker sends the malicious bset request.
	attacker := s.NewConn()
	fmt.Println("attacker: sending bset with a 64MiB claimed body length...")
	_, closed, aerr := attacker.Do(memcache.FormatBSet("x", 64<<20, []byte("payload")))
	switch {
	case aerr != nil:
		fmt.Printf("attacker: transport error: %v\n", aerr)
	case closed:
		fmt.Println("attacker: connection closed by the server")
	default:
		fmt.Println("attacker: request was served?!")
	}

	// Does alice still have her session?
	resp, _, err = alice.Do(memcache.FormatGet("session:alice"))
	if err != nil {
		fmt.Printf("alice: get session -> SERVER GONE (%v)\n", err)
	} else if val, _, ok := memcache.ParseGetValue(resp); ok {
		fmt.Printf("alice: get session -> %q (data intact)\n", val)
	} else {
		fmt.Println("alice: get session -> MISS (data lost)")
	}

	if crashed, cause := s.Crashed(); crashed {
		fmt.Printf("outcome: server process CRASHED (%v)\n", cause)
		fmt.Println("         every client lost its connection and all cached data")
	} else {
		fmt.Printf("outcome: server survived; rewinds absorbed: %d\n", s.Rewinds())
	}
	return nil
}

func trim(b []byte) string {
	s := string(b)
	for len(s) > 0 && (s[len(s)-1] == '\r' || s[len(s)-1] == '\n') {
		s = s[:len(s)-1]
	}
	return s
}
