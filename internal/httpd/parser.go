// Package httpd is an architectural port of the NGINX worker used as the
// paper's second case study (§V-B): a multi-process web server whose HTTP
// parser — the component most exposed to untrusted input — can be
// sandboxed in an accessible persistent nested domain. A detected memory
// error in the parser then closes only the offending connection, where
// the baseline loses every connection of the crashed worker process.
//
// The planted vulnerability reproduces CVE-2009-2629: the complex-URI
// normalizer resolves "/../" segments by scanning a destination pointer
// backwards for the previous '/' without checking the buffer start, so a
// URI with enough parent references walks the pointer below the buffer
// into foreign memory.
package httpd

import (
	"fmt"

	"sdrad/internal/mem"
	"sdrad/internal/telemetry"
)

// Method is a parsed HTTP method.
type Method int

// Supported methods.
const (
	MethodGET Method = iota + 1
	MethodHEAD
	MethodPOST
)

func (m Method) String() string {
	switch m {
	case MethodGET:
		return "GET"
	case MethodHEAD:
		return "HEAD"
	case MethodPOST:
		return "POST"
	default:
		return "UNKNOWN"
	}
}

// Request is the parse result handed back from the parser domain.
type Request struct {
	Method    Method
	Path      string
	Version   string
	KeepAlive bool
	Headers   int // parsed header count
	// ClientCert carries the X-Client-Cert header value when client
	// certificate verification is enabled (the §V-C NGINX+OpenSSL
	// integration).
	ClientCert string
}

// parseError is a protocol-level parse failure (HTTP 400), distinct from
// memory faults which surface as traps.
type parseError struct{ reason string }

func (e *parseError) Error() string { return "httpd: bad request: " + e.reason }

// parserEnv is the memory environment of one parsing pass: the copied
// request bytes inside the parser's reach and a request pool for
// normalization buffers.
type parserEnv struct {
	c    *mem.CPU
	buf  mem.Addr // request bytes (copied into the nested domain)
	blen int
	pool *Pool // request pool (data domain in the hardened build)
}

// window returns a leased native view of the whole request buffer, or
// nil when the lease is refused (armed injector, revoked rights) — the
// callers then stay on the checked page-run scanners with identical
// fault semantics.
func (env *parserEnv) window() []byte {
	if env.blen <= 0 {
		return nil
	}
	l := env.c.SpanLease(env.buf, env.blen, mem.AccessRead)
	if b, ok := l.Bytes(env.buf, env.blen); ok {
		return b
	}
	return nil
}

// poolWindow returns a leased native view of the whole request pool
// block. The lease is write-kind (PKU write rights imply read), so the
// normalizer can both emit segments and run its backward scan on it.
func (env *parserEnv) poolWindow() ([]byte, bool) {
	if env.pool == nil || env.pool.size == 0 {
		return nil, false
	}
	l := env.c.SpanLease(env.pool.base, int(env.pool.size), mem.AccessWrite)
	return l.Window()
}

// parseRequestLine is phase one of the NGINX parser: method, URI, and
// version, including complex-URI normalization. It returns the byte
// offset where the headers begin.
func parseRequestLine(env *parserEnv, req *Request) (headerOff int, err error) {
	line, next := readLineAt(env, 0)
	if line == nil {
		return 0, &parseError{"missing request line"}
	}
	var fields [4][]byte
	parts := splitSpaces(fields[:0], line)
	if len(parts) != 3 {
		return 0, &parseError{"malformed request line"}
	}
	switch string(parts[0]) {
	case "GET":
		req.Method = MethodGET
	case "HEAD":
		req.Method = MethodHEAD
	case "POST":
		req.Method = MethodPOST
	default:
		return 0, &parseError{"unsupported method"}
	}
	switch string(parts[2]) {
	case "HTTP/1.0":
		req.Version, req.KeepAlive = "HTTP/1.0", false
	case "HTTP/1.1":
		req.Version, req.KeepAlive = "HTTP/1.1", true
	default:
		return 0, &parseError{"unsupported version"}
	}

	uri := parts[1]
	if len(uri) == 0 || uri[0] != '/' {
		return 0, &parseError{"invalid URI"}
	}
	if isComplexURI(uri) {
		norm, err := normalizeComplexURI(env, uri)
		if err != nil {
			return 0, err
		}
		req.Path = norm
	} else {
		req.Path = string(uri)
	}
	return next, nil
}

// parseHeaders is phase two: header lines until the empty line.
func parseHeaders(env *parserEnv, req *Request, off int) error {
	for {
		line, next := readLineAt(env, off)
		if line == nil {
			return &parseError{"unterminated headers"}
		}
		off = next
		if len(line) == 0 {
			return nil // empty line: end of headers
		}
		colon := indexByte(line, ':')
		if colon <= 0 {
			return &parseError{"malformed header"}
		}
		name := trimSpaces(line[:colon])
		value := trimSpaces(line[colon+1:])
		req.Headers++
		if asciiEqualFold(name, "Connection") {
			switch {
			case asciiEqualFold(value, "close"):
				req.KeepAlive = false
			case asciiEqualFold(value, "keep-alive"):
				req.KeepAlive = true
			}
		}
		if asciiEqualFold(name, "X-Client-Cert") {
			req.ClientCert = string(value)
		}
		if req.Headers > 100 {
			return &parseError{"too many headers"}
		}
	}
}

// isComplexURI reports whether the URI needs normalization (NGINX's
// "complex URI" detection: dot segments or double slashes).
func isComplexURI(uri []byte) bool {
	for i := 0; i+1 < len(uri); i++ {
		if uri[i] == '/' && (uri[i+1] == '.' || uri[i+1] == '/') {
			return true
		}
	}
	return false
}

// normalizeComplexURI resolves ".", "..", and "//" segments into a
// destination buffer taken from the request pool.
//
// BUG (intentional — the CVE-2009-2629 analog): the ".." handler backs
// the write pointer up to the previous '/' by scanning memory backwards,
// with no check against the start of the destination buffer. A URI such
// as "/../../../.." walks the pointer below the buffer, reading (and
// later writing) memory before it. In the hardened build this escapes
// the request pool and faults inside the parser domain, triggering a
// rewind; in the baseline it runs off the worker heap and kills the
// worker process.
func normalizeComplexURI(env *parserEnv, uri []byte) (string, error) {
	dst, err := env.pool.Alloc(env.c, uint64(len(uri))+1)
	if err != nil {
		return "", &parseError{"request pool exhausted"}
	}
	c := env.c
	// Leased fast path: the normalizer runs on a native window over the
	// pool block. The window covers exactly [pool.base, pool.base+size),
	// so the moment the buggy backward scan walks dp below the pool the
	// code drops to the checked accessors — which read (or fault in)
	// foreign memory at exactly the byte the unleased walk would have
	// touched, keeping the CVE's observable behaviour bit-identical.
	pw, pwok := env.poolWindow()
	var pbase mem.Addr
	if pwok {
		pbase = env.pool.base
	}
	dp := dst // next write position
	i := 0
	for i < len(uri) {
		// Invariant: uri[i] == '/'.
		j := i + 1
		for j < len(uri) && uri[j] != '/' {
			j++
		}
		seg := uri[i+1 : j]
		switch {
		case len(seg) == 0 || (len(seg) == 1 && seg[0] == '.'):
			// "//" or "/./": skip.
		case len(seg) == 2 && seg[0] == '.' && seg[1] == '.':
			// "/../": drop the previous segment by scanning back to the
			// prior '/'. The scan has no lower bound — the planted bug:
			// with enough "..", dp walks below dst into foreign memory.
			// The scan consumes one backward page run at a time; each run
			// is entered by an access check at its highest byte, which is
			// exactly the first byte a descending byte-wise loop would
			// touch, so the walk still faults at the same address.
			dp--
			for {
				if pwok && dp >= pbase {
					// In-pool portion of the scan on the native window.
					if k := lastIndexByte(pw[:int(dp-pbase)+1], '/'); k >= 0 {
						dp = pbase + mem.Addr(k)
						break
					}
					// Not found inside the pool: continue below it on the
					// checked path, which walks foreign memory (and
					// faults) exactly as the unleased scan does.
					dp = pbase - 1
					continue
				}
				run := c.ReadRunBack(dp, mem.PageSize)
				if k := lastIndexByte(run, '/'); k >= 0 {
					dp -= mem.Addr(len(run) - 1 - k)
					break
				}
				dp -= mem.Addr(len(run))
			}
		default:
			if pwok && dp >= pbase && int(dp-pbase)+1+len(seg) <= len(pw) {
				o := int(dp - pbase)
				pw[o] = '/'
				copy(pw[o+1:], seg)
				dp += mem.Addr(1 + len(seg))
				break
			}
			c.WriteU8(dp, '/')
			dp++
			for rem := seg; len(rem) > 0; {
				run := c.WriteRun(dp, len(rem))
				n := copy(run, rem)
				rem = rem[n:]
				dp += mem.Addr(n)
			}
		}
		i = j
	}
	if dp <= dst {
		return "/", nil
	}
	if pwok && dp >= pbase {
		o := int(dst - pbase)
		return string(pw[o : o+int(dp-dst)]), nil
	}
	return string(c.ReadBytes(dst, int(dp-dst))), nil
}

// readLineAt returns the bytes of the CRLF-terminated line starting at
// off, and the offset just past it. A nil line means no terminator was
// found. The scan walks the buffer one page run at a time with no copying
// or allocation in the common case (line within one page); the returned
// slice may alias simulated memory and is only valid until the buffer is
// next written.
func readLineAt(env *parserEnv, off int) (line []byte, next int) {
	if off >= env.blen {
		return nil, off
	}
	// Leased fast path: one validity check for the whole buffer, then a
	// plain in-window CRLF scan.
	if b := env.window(); b != nil {
		if i := findCRLF(b[off:]); i >= 0 {
			return b[off : off+i], off + i + 2
		}
		return nil, off
	}
	c := env.c
	var acc []byte // spill, used only when a line crosses a page boundary
	scanned := 0
	for off+scanned < env.blen {
		run := c.ReadRun(env.buf+mem.Addr(off+scanned), env.blen-off-scanned)
		if len(acc) > 0 && acc[len(acc)-1] == '\r' && run[0] == '\n' {
			return acc[:len(acc)-1], off + scanned + 1
		}
		if i := findCRLF(run); i >= 0 {
			if acc == nil {
				return run[:i], off + scanned + i + 2
			}
			return append(acc, run[:i]...), off + scanned + i + 2
		}
		acc = append(acc, run...)
		scanned += len(run)
	}
	return nil, off
}

// findCRLF returns the index of the first "\r\n" fully inside b, or -1.
func findCRLF(b []byte) int {
	for i := 0; i+1 < len(b); i++ {
		j := indexByte(b[i:len(b)-1], '\r')
		if j < 0 {
			return -1
		}
		i += j
		if b[i+1] == '\n' {
			return i
		}
	}
	return -1
}

func lastIndexByte(b []byte, c byte) int {
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] == c {
			return i
		}
	}
	return -1
}

// splitSpaces appends the space-separated fields of b to out.
func splitSpaces(out [][]byte, b []byte) [][]byte {
	start := 0
	for i := 0; i <= len(b); i++ {
		if i == len(b) || b[i] == ' ' {
			if i > start {
				out = append(out, b[start:i])
			}
			start = i + 1
		}
	}
	return out
}

func trimSpaces(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t') {
		b = b[:len(b)-1]
	}
	return b
}

func indexByte(b []byte, c byte) int {
	for i := range b {
		if b[i] == c {
			return i
		}
	}
	return -1
}

// asciiEqualFold is a case-insensitive ASCII comparison of parsed bytes
// with a name the parser knows.
func asciiEqualFold(a []byte, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 32
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 32
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// Pool is the NGINX request-pool analog: a bump allocator over one block
// of memory, reset between requests. In the hardened build the block
// lives in a data domain accessible to the parser domain (paper §V-B).
type Pool struct {
	base mem.Addr
	size uint64
	off  uint64
	high uint64

	// Optional contention instruments (the parser-pool analog of the
	// memcache shard gauges): high-water fill, resets, and allocation
	// failures. Nil without telemetry; Alloc/Reset run on the worker
	// thread, the instruments are atomics readable from anywhere.
	hwGauge    *telemetry.Gauge
	resetCtr   *telemetry.Counter
	exhaustCtr *telemetry.Counter
}

// NewPool wraps [base, base+size) as a request pool.
func NewPool(base mem.Addr, size uint64) *Pool {
	return &Pool{base: base, size: size}
}

// instrument attaches the pool's telemetry instruments.
func (p *Pool) instrument(hw *telemetry.Gauge, resets, exhaustions *telemetry.Counter) {
	p.hwGauge, p.resetCtr, p.exhaustCtr = hw, resets, exhaustions
}

// HighWater reports the deepest fill the pool has reached.
func (p *Pool) HighWater() uint64 { return p.high }

// Alloc grabs n bytes from the pool.
func (p *Pool) Alloc(c *mem.CPU, n uint64) (mem.Addr, error) {
	n = (n + 7) &^ 7
	if p.off+n > p.size {
		if p.exhaustCtr != nil {
			p.exhaustCtr.Inc()
		}
		return 0, fmt.Errorf("httpd: pool exhausted (%d of %d used)", p.off, p.size)
	}
	a := p.base + mem.Addr(p.off)
	p.off += n
	if p.off > p.high {
		p.high = p.off
		if p.hwGauge != nil {
			p.hwGauge.Set(int64(p.high))
		}
	}
	return a, nil
}

// Reset recycles the pool for the next request, zeroing the used
// prefix so stale request data cannot leak between requests.
func (p *Pool) Reset(c *mem.CPU) {
	if p.off > 0 {
		c.Memset(p.base, 0, int(p.off))
		p.off = 0
		if p.resetCtr != nil {
			p.resetCtr.Inc()
		}
	}
}
