package memcache

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"sdrad/internal/telemetry"
)

// doText sends a raw text command with an optional body.
func doText(t *testing.T, c *Conn, line string, body []byte) string {
	t.Helper()
	req := []byte(line + "\r\n")
	if body != nil {
		req = append(req, body...)
		req = append(req, '\r', '\n')
	}
	resp, closed, err := c.Do(req)
	if err != nil {
		t.Fatalf("%q: %v", line, err)
	}
	if closed {
		t.Fatalf("%q: connection closed", line)
	}
	return string(resp)
}

func storeLine(cmd, key string, flags int, body []byte, extra string) string {
	s := fmt.Sprintf("%s %s %d 0 %d", cmd, key, flags, len(body))
	if extra != "" {
		s += " " + extra
	}
	return s
}

func TestAddReplaceSemantics(t *testing.T) {
	allVariants(t, func(t *testing.T, v Variant) {
		s := startServer(t, v, 1)
		c := s.NewConn()
		// add on a fresh key stores; on an existing key refuses.
		if got := doText(t, c, storeLine("add", "k", 0, []byte("v1"), ""), []byte("v1")); got != "STORED\r\n" {
			t.Fatalf("add fresh = %q", got)
		}
		if got := doText(t, c, storeLine("add", "k", 0, []byte("v2"), ""), []byte("v2")); got != "NOT_STORED\r\n" {
			t.Fatalf("add existing = %q", got)
		}
		// replace on existing stores; on missing refuses.
		if got := doText(t, c, storeLine("replace", "k", 0, []byte("v3"), ""), []byte("v3")); got != "STORED\r\n" {
			t.Fatalf("replace existing = %q", got)
		}
		if got := doText(t, c, storeLine("replace", "nope", 0, []byte("x"), ""), []byte("x")); got != "NOT_STORED\r\n" {
			t.Fatalf("replace missing = %q", got)
		}
		val, _, ok := ParseGetValue(mustDo(t, c, FormatGet("k")))
		if !ok || string(val) != "v3" {
			t.Fatalf("final value = %q", val)
		}
	})
}

func TestAppendPrepend(t *testing.T) {
	allVariants(t, func(t *testing.T, v Variant) {
		s := startServer(t, v, 1)
		c := s.NewConn()
		mustDo(t, c, FormatSet("k", []byte("mid"), 5))
		if got := doText(t, c, storeLine("append", "k", 0, []byte("-end"), ""), []byte("-end")); got != "STORED\r\n" {
			t.Fatalf("append = %q", got)
		}
		if got := doText(t, c, storeLine("prepend", "k", 0, []byte("pre-"), ""), []byte("pre-")); got != "STORED\r\n" {
			t.Fatalf("prepend = %q", got)
		}
		val, flags, ok := ParseGetValue(mustDo(t, c, FormatGet("k")))
		if !ok || string(val) != "pre-mid-end" {
			t.Fatalf("value = %q", val)
		}
		if flags != 5 {
			t.Errorf("flags lost on concat: %d", flags)
		}
		if got := doText(t, c, storeLine("append", "missing", 0, []byte("x"), ""), []byte("x")); got != "NOT_STORED\r\n" {
			t.Fatalf("append missing = %q", got)
		}
	})
}

func TestConditionalStoresCountNoReads(t *testing.T) {
	// add, replace, append, cas and delete each look the key up to
	// decide, but the client reads nothing: the direct arm counts no get
	// or hit for them, and the deferred arm's probes must not either.
	// cmd_set counts every store attempt on both arms, refused ones (the
	// add and the cas here) included.
	counts := func(v Variant) (gets, hits, sets int) {
		s := startServer(t, v, 1)
		c := s.NewConn()
		mustDo(t, c, FormatSet("k", []byte("v"), 0))
		for _, step := range []struct{ line, body, want string }{
			{storeLine("add", "k", 0, []byte("a"), ""), "a", "NOT_STORED\r\n"},
			{storeLine("replace", "k", 0, []byte("r"), ""), "r", "STORED\r\n"},
			{storeLine("append", "k", 0, []byte("+"), ""), "+", "STORED\r\n"},
			{storeLine("cas", "k", 0, []byte("c"), "999999"), "c", "EXISTS\r\n"},
			{"delete k", "", "DELETED\r\n"},
		} {
			var body []byte
			if step.body != "" {
				body = []byte(step.body)
			}
			if got := doText(t, c, step.line, body); got != step.want {
				t.Fatalf("%v: %q = %q, want %q", v, step.line, got, step.want)
			}
		}
		st := s.StorageStats()
		return st.Gets, st.Hits, st.Sets
	}
	vg, vh, vs := counts(VariantVanilla)
	hg, hh, hs := counts(VariantSDRaD)
	if vg != hg || vh != hh || vs != hs {
		t.Errorf("gets/hits/sets: vanilla %d/%d/%d, hardened %d/%d/%d", vg, vh, vs, hg, hh, hs)
	}
	if vs != 5 {
		t.Errorf("cmd_set = %d after set, add, replace, append and cas; want 5", vs)
	}
}

// parseGetsCAS extracts the cas id from a gets response.
func parseGetsCAS(t *testing.T, resp string) uint64 {
	t.Helper()
	line := resp[:strings.Index(resp, "\r\n")]
	fields := strings.Fields(line)
	if len(fields) != 5 {
		t.Fatalf("gets header = %q", line)
	}
	id, err := strconv.ParseUint(fields[4], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestCASSemantics(t *testing.T) {
	allVariants(t, func(t *testing.T, v Variant) {
		s := startServer(t, v, 1)
		c := s.NewConn()
		mustDo(t, c, FormatSet("k", []byte("v1"), 0))
		resp := doText(t, c, "gets k", nil)
		casid := parseGetsCAS(t, resp)

		// Matching cas id: swap succeeds.
		line := storeLine("cas", "k", 0, []byte("v2"), strconv.FormatUint(casid, 10))
		if got := doText(t, c, line, []byte("v2")); got != "STORED\r\n" {
			t.Fatalf("cas match = %q", got)
		}
		// Stale id: EXISTS.
		if got := doText(t, c, line, []byte("v3")); got != "EXISTS\r\n" {
			t.Fatalf("cas stale = %q", got)
		}
		// Missing key: NOT_FOUND.
		miss := storeLine("cas", "ghost", 0, []byte("x"), "1")
		if got := doText(t, c, miss, []byte("x")); got != "NOT_FOUND\r\n" {
			t.Fatalf("cas missing = %q", got)
		}
		// Malformed cas id.
		bad := storeLine("cas", "k", 0, []byte("x"), "notanumber")
		if got := doText(t, c, bad, []byte("x")); !strings.HasPrefix(got, "CLIENT_ERROR") {
			t.Fatalf("cas malformed = %q", got)
		}
		val, _, _ := ParseGetValue(mustDo(t, c, FormatGet("k")))
		if string(val) != "v2" {
			t.Fatalf("final = %q", val)
		}
	})
}

func TestTouchAndFlushAll(t *testing.T) {
	allVariants(t, func(t *testing.T, v Variant) {
		s := startServer(t, v, 1)
		c := s.NewConn()
		mustDo(t, c, FormatSet("a", []byte("1"), 0))
		mustDo(t, c, FormatSet("b", []byte("2"), 0))
		if got := doText(t, c, "touch a 100", nil); got != "TOUCHED\r\n" {
			t.Fatalf("touch = %q", got)
		}
		if got := doText(t, c, "touch ghost 100", nil); got != "NOT_FOUND\r\n" {
			t.Fatalf("touch missing = %q", got)
		}
		if got := doText(t, c, "flush_all", nil); got != "OK\r\n" {
			t.Fatalf("flush = %q", got)
		}
		for _, k := range []string{"a", "b"} {
			if got := mustDo(t, c, FormatGet(k)); string(got) != "END\r\n" {
				t.Fatalf("get %s after flush = %q", k, got)
			}
		}
		st := s.StorageStats()
		if st.Items != 0 {
			t.Errorf("items after flush = %d", st.Items)
		}
		// The store is still usable.
		mustDo(t, c, FormatSet("c", []byte("3"), 0))
		if _, _, ok := ParseGetValue(mustDo(t, c, FormatGet("c"))); !ok {
			t.Error("set after flush failed")
		}
	})
}

func TestCASIncrementsOnEveryStore(t *testing.T) {
	s := startServer(t, VariantVanilla, 1)
	c := s.NewConn()
	mustDo(t, c, FormatSet("k", []byte("v1"), 0))
	id1 := parseGetsCAS(t, doText(t, c, "gets k", nil))
	mustDo(t, c, FormatSet("k", []byte("v2"), 0))
	id2 := parseGetsCAS(t, doText(t, c, "gets k", nil))
	if id2 <= id1 {
		t.Errorf("cas ids not monotonic: %d then %d", id1, id2)
	}
}

func TestDeferredFlushAtomicity(t *testing.T) {
	// In the hardened build, flush_all is deferred to normal domain exit
	// like any other mutation; a flush inside an attacked request must
	// never apply.
	s := startServer(t, VariantSDRaD, 1)
	c := s.NewConn()
	mustDo(t, c, FormatSet("keep", []byte("me"), 0))
	// A request that would flush but is served normally: applies.
	if got := doText(t, c, "flush_all", nil); got != "OK\r\n" {
		t.Fatalf("flush = %q", got)
	}
	if got := mustDo(t, c, FormatGet("keep")); string(got) != "END\r\n" {
		t.Fatalf("keep survived flush: %q", got)
	}
}

func TestInlineModeMatchesChannelMode(t *testing.T) {
	// The RunInline fast path must serve exactly like the event loop.
	s := startServer(t, VariantSDRaD, 1)
	normal := s.NewConn()
	mustDo(t, normal, FormatSet("shared", []byte("via-channel"), 0))

	err := s.RunInline("bench", func(newConn func() *Conn, do InlineDo) error {
		c := newConn()
		resp, _, err := do(c, FormatGet("shared"))
		if err != nil {
			return err
		}
		val, _, ok := ParseGetValue(resp)
		if !ok || string(val) != "via-channel" {
			return fmt.Errorf("inline get = %q", resp)
		}
		if resp, _, err := do(c, FormatSet("inline", []byte("v"), 0)); err != nil || string(resp) != "STORED\r\n" {
			return fmt.Errorf("inline set = %q, %v", resp, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Data stored inline is visible through the normal path.
	if _, _, ok := ParseGetValue(mustDo(t, normal, FormatGet("inline"))); !ok {
		t.Error("inline store invisible to channel path")
	}
}

func TestInlineModeRecoversFromAttack(t *testing.T) {
	s := startServer(t, VariantSDRaD, 1)
	err := s.RunInline("bench", func(newConn func() *Conn, do InlineDo) error {
		evil := newConn()
		_, closed, err := do(evil, FormatBSet("atk", 16<<20, nil))
		if err != nil || !closed {
			return fmt.Errorf("attack: closed=%v err=%v", closed, err)
		}
		good := newConn()
		if resp, _, err := do(good, FormatSet("after", []byte("ok"), 0)); err != nil || string(resp) != "STORED\r\n" {
			return fmt.Errorf("post-attack set = %q, %v", resp, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Rewinds() != 1 {
		t.Errorf("rewinds = %d", s.Rewinds())
	}
}

func TestNoreplySuppressesResponse(t *testing.T) {
	allVariants(t, func(t *testing.T, v Variant) {
		s := startServer(t, v, 1)
		c := s.NewConn()
		resp, closed, err := c.Do([]byte("set k 0 0 2 noreply\r\nhi\r\n"))
		if err != nil || closed {
			t.Fatalf("noreply set: closed=%v err=%v", closed, err)
		}
		if len(resp) != 0 {
			t.Fatalf("noreply produced output: %q", resp)
		}
		// The store happened.
		val, _, ok := ParseGetValue(mustDo(t, c, FormatGet("k")))
		if !ok || string(val) != "hi" {
			t.Fatalf("value = %q ok=%v", val, ok)
		}
		// delete noreply too.
		resp, _, err = c.Do([]byte("delete k noreply\r\n"))
		if err != nil || len(resp) != 0 {
			t.Fatalf("noreply delete: %q, %v", resp, err)
		}
		if got := mustDo(t, c, FormatGet("k")); string(got) != "END\r\n" {
			t.Fatalf("key survived noreply delete: %q", got)
		}
	})
}

// TestReadRequestFramesEveryDataBlock frames each command that carries a
// data block, followed by a get on the same stream: the block belongs to
// its command, and the get arrives as the second request, not the block.
func TestReadRequestFramesEveryDataBlock(t *testing.T) {
	get := "get k\r\n"
	for _, tc := range []struct{ name, frame string }{
		{"set", "set k 0 0 5\r\nhello\r\n"},
		{"add", "add k 0 0 5\r\nhello\r\n"},
		{"replace", "replace k 0 0 5\r\nhello\r\n"},
		{"append", "append k 0 0 5\r\nhello\r\n"},
		{"prepend", "prepend k 0 0 5\r\nhello\r\n"},
		{"cas", "cas k 0 0 5 42\r\nhello\r\n"},
		{"noreply", "append k 0 0 5 noreply\r\nhello\r\n"},
		{"bset", "bset k 4096 5\r\nhello\r\n"},
		{"no block", "delete k\r\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := bufio.NewReader(strings.NewReader(tc.frame + get))
			for _, want := range []string{tc.frame, get} {
				got, err := ReadRequest(r)
				if err != nil || string(got) != want {
					t.Fatalf("frame = %q, %v; want %q", got, err, want)
				}
			}
		})
	}
}

// TestRequestCountAgreesAcrossBuilds pins where a request is counted: a
// pipeline whose second request is quit counts the two requests served
// before the close on every build, not the ones behind it.
func TestRequestCountAgreesAcrossBuilds(t *testing.T) {
	allVariants(t, func(t *testing.T, v Variant) {
		rec := telemetry.New(telemetry.Options{})
		s, err := NewServer(Config{Variant: v, HashPower: 10, CacheBytes: 4 << 20, Telemetry: rec})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Stop)
		res := s.NewConn().DoPipeline([][]byte{FormatGet("k"), []byte("quit\r\n"), FormatGet("k"), FormatGet("k")})
		if !res[1].Closed || res[2].Err != ErrConnClosed || res[3].Err != ErrConnClosed {
			t.Fatalf("pipeline results: %+v", res)
		}
		if got := rec.Registry().SnapshotJSON()["sdrad_memcache_requests_total"]; got != int64(2) {
			t.Errorf("sdrad_memcache_requests_total = %v, want 2", got)
		}
	})
}
