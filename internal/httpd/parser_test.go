package httpd

import (
	"strings"
	"testing"
	"testing/quick"

	"sdrad/internal/mem"
)

// parserFixture builds a parser environment over plain simulated memory.
func parserFixture(t testing.TB, raw string) (*parserEnv, *mem.CPU) {
	t.Helper()
	as := mem.NewAddressSpace()
	cpu := as.NewCPU()
	buf, err := as.MapAnon(16*1024, mem.ProtRW, 0)
	if err != nil {
		t.Fatal(err)
	}
	cpu.Write(buf, []byte(raw))
	poolBase, err := as.MapAnon(16*1024, mem.ProtRW, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &parserEnv{
		c:    cpu,
		buf:  buf,
		blen: len(raw),
		pool: NewPool(poolBase, 16*1024),
	}, cpu
}

func TestParseRequestLineBasics(t *testing.T) {
	cases := []struct {
		raw     string
		method  Method
		path    string
		keep    bool
		wantErr bool
	}{
		{"GET /a/b HTTP/1.1\r\n\r\n", MethodGET, "/a/b", true, false},
		{"GET / HTTP/1.0\r\n\r\n", MethodGET, "/", false, false},
		{"HEAD /x HTTP/1.1\r\n\r\n", MethodHEAD, "/x", true, false},
		{"POST /p HTTP/1.1\r\n\r\n", MethodPOST, "/p", true, false},
		{"BREW /pot HTTP/1.1\r\n\r\n", 0, "", false, true},
		{"GET /x HTTP/2.0\r\n\r\n", 0, "", false, true},
		{"GET noslash HTTP/1.1\r\n\r\n", 0, "", false, true},
		{"GET /x\r\n\r\n", 0, "", false, true},
		// More fields than the fixed split array holds: malformed, not a
		// valid line with the tail dropped.
		{"GET / HTTP/1.1 extra junk\r\n\r\n", 0, "", false, true},
		{"no-crlf-anywhere", 0, "", false, true},
	}
	for _, tc := range cases {
		env, _ := parserFixture(t, tc.raw)
		var req Request
		_, err := parseRequestLine(env, &req)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%q: expected error", tc.raw)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.raw, err)
			continue
		}
		if req.Method != tc.method || req.Path != tc.path || req.KeepAlive != tc.keep {
			t.Errorf("%q: got %+v", tc.raw, req)
		}
	}
}

func TestParseHeadersSemantics(t *testing.T) {
	raw := "GET / HTTP/1.1\r\nHost: example\r\nX-Client-Cert: abc|def\r\nConnection: close\r\n\r\n"
	env, _ := parserFixture(t, raw)
	var req Request
	off, err := parseRequestLine(env, &req)
	if err != nil {
		t.Fatal(err)
	}
	if err := parseHeaders(env, &req, off); err != nil {
		t.Fatal(err)
	}
	if req.Headers != 3 {
		t.Errorf("headers = %d", req.Headers)
	}
	if req.KeepAlive {
		t.Error("Connection: close ignored")
	}
	if req.ClientCert != "abc|def" {
		t.Errorf("client cert = %q", req.ClientCert)
	}
}

func TestParseHeadersErrors(t *testing.T) {
	for _, raw := range []string{
		"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",
		"GET / HTTP/1.1\r\n: empty-name\r\n\r\n",
		"GET / HTTP/1.1\r\nUnterminated: yes",
	} {
		env, _ := parserFixture(t, raw)
		var req Request
		off, err := parseRequestLine(env, &req)
		if err != nil {
			t.Fatalf("%q: request line: %v", raw, err)
		}
		if err := parseHeaders(env, &req, off); err == nil {
			t.Errorf("%q: header error not detected", raw)
		}
	}
}

func TestTooManyHeaders(t *testing.T) {
	var b strings.Builder
	b.WriteString("GET / HTTP/1.1\r\n")
	for i := 0; i < 120; i++ {
		b.WriteString("X-H: v\r\n")
	}
	b.WriteString("\r\n")
	env, _ := parserFixture(t, b.String())
	var req Request
	off, _ := parseRequestLine(env, &req)
	if err := parseHeaders(env, &req, off); err == nil {
		t.Error("header flood accepted")
	}
}

func TestComplexURINormalization(t *testing.T) {
	cases := []struct{ in, want string }{
		{"/a/../b", "/b"},
		{"/a/b/../c", "/a/c"},
		{"//a", "/a"},
		{"/./a", "/a"},
		{"/a/./b", "/a/b"},
		{"/a/b/../../c/d", "/c/d"},
		{"/a//b/./c/..", "/a/b"},
	}
	for _, tc := range cases {
		env, _ := parserFixture(t, "GET "+tc.in+" HTTP/1.1\r\n\r\n")
		var req Request
		if _, err := parseRequestLine(env, &req); err != nil {
			t.Errorf("%q: %v", tc.in, err)
			continue
		}
		if req.Path != tc.want {
			t.Errorf("%q -> %q, want %q", tc.in, req.Path, tc.want)
		}
	}
}

func TestIsComplexURI(t *testing.T) {
	for uri, want := range map[string]bool{
		"/plain/path": false,
		"/a/../b":     true,
		"//double":    true,
		"/dot/./x":    true,
		"/":           false,
		"/trailing/.": true,
	} {
		if got := isComplexURI([]byte(uri)); got != want {
			t.Errorf("isComplexURI(%q) = %v", uri, got)
		}
	}
}

// Property: normalization of benign URIs (no leading ".." escapes) never
// faults and always yields an absolute path.
func TestQuickNormalizeBenignURIs(t *testing.T) {
	segChars := []byte("abcXYZ019-_")
	prop := func(segsRaw []uint8, dots []bool) bool {
		// Build a URI whose ".." count never exceeds its depth.
		var sb strings.Builder
		depth := 0
		di := 0
		for _, s := range segsRaw {
			if di < len(dots) && dots[di] && depth > 0 {
				sb.WriteString("/..")
				depth--
			} else {
				sb.WriteByte('/')
				sb.WriteByte(segChars[int(s)%len(segChars)])
				depth++
			}
			di++
			if sb.Len() > 500 {
				break
			}
		}
		if sb.Len() == 0 {
			sb.WriteByte('/')
		}
		uri := sb.String()
		env, _ := parserFixture(t, "GET "+uri+" HTTP/1.1\r\n\r\n")
		var req Request
		if _, err := parseRequestLine(env, &req); err != nil {
			return false
		}
		return strings.HasPrefix(req.Path, "/")
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPoolResetZeroes(t *testing.T) {
	as := mem.NewAddressSpace()
	cpu := as.NewCPU()
	base, _ := as.MapAnon(4096, mem.ProtRW, 0)
	pool := NewPool(base, 4096)
	a, err := pool.Alloc(cpu, 100)
	if err != nil {
		t.Fatal(err)
	}
	cpu.Memset(a, 0xEE, 100)
	pool.Reset(cpu)
	b, err := pool.Alloc(cpu, 100)
	if err != nil {
		t.Fatal(err)
	}
	if b != a {
		t.Errorf("pool did not recycle: %#x vs %#x", uint64(a), uint64(b))
	}
	for i := 0; i < 100; i++ {
		if cpu.ReadU8(b+mem.Addr(i)) != 0 {
			t.Fatal("stale bytes after reset")
		}
	}
	// Exhaustion.
	if _, err := pool.Alloc(cpu, 8192); err == nil {
		t.Error("oversized pool alloc accepted")
	}
}

func TestKeepAliveGETParseAllocatesOnlyThePath(t *testing.T) {
	env, _ := parserFixture(t, string(FormatRequest("/index.html", true)))
	var req Request
	n := testing.AllocsPerRun(100, func() {
		req = Request{}
		off, err := parseRequestLine(env, &req)
		if err == nil {
			err = parseHeaders(env, &req, off)
		}
		if err != nil {
			t.Fatal(err)
		}
	})
	if n != 1 {
		t.Errorf("request line + headers allocate %.0f times, want 1 (Request.Path)", n)
	}
	if req.Path != "/index.html" || req.Version != "HTTP/1.1" || !req.KeepAlive || req.Headers != 2 {
		t.Errorf("parsed %+v", req)
	}
}

func TestHelperFunctions(t *testing.T) {
	if !asciiEqualFold([]byte("cOnNeCtIoN"), "Connection") || asciiEqualFold([]byte("a"), "ab") ||
		asciiEqualFold([]byte("x"), "y") {
		t.Error("asciiEqualFold broken")
	}
	if string(trimSpaces([]byte("  x \t"))) != "x" || len(trimSpaces([]byte("   "))) != 0 {
		t.Error("trimSpaces broken")
	}
	if indexByte([]byte("abc"), 'b') != 1 || indexByte([]byte("abc"), 'z') != -1 {
		t.Error("indexByte broken")
	}
	var fields [4][]byte
	parts := splitSpaces(fields[:0], []byte("a  b c "))
	if len(parts) != 3 || string(parts[2]) != "c" {
		t.Errorf("splitSpaces = %q", parts)
	}
	// More fields than the caller's array holds spill, they are not dropped.
	parts = splitSpaces(fields[:0], []byte("GET / HTTP/1.1 extra junk and more"))
	if len(parts) != 7 || string(parts[3]) != "extra" || string(parts[6]) != "more" {
		t.Errorf("splitSpaces past the fixed array = %q", parts)
	}
}
