package httpd

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"sdrad/internal/cacheline"
	"sdrad/internal/core"
	"sdrad/internal/cryptolib"
	"sdrad/internal/host"
	"sdrad/internal/mem"
	"sdrad/internal/policy"
	"sdrad/internal/proc"
	"sdrad/internal/stack"
	"sdrad/internal/telemetry"
)

// Variant selects the build under test (Figure 5 of the paper).
type Variant = host.Variant

// Build variants. The hardened build runs the HTTP parser in an
// accessible persistent nested domain with per-request pools in a data
// domain.
const (
	VariantVanilla = host.Vanilla
	VariantTLSF    = host.TLSF
	VariantSDRaD   = host.SDRaD
)

// Domain indices used by the hardened worker.
const (
	parserUDI = core.UDI(1) // the sandboxed HTTP parser
	poolUDI   = core.UDI(8) // data domain holding request pools
)

// Config sizes the server.
type Config struct {
	// Variant selects the build (default VariantVanilla).
	Variant Variant
	// Workers is the number of worker processes (default 1).
	Workers int
	// Files maps URL paths to synthesized static-content sizes.
	Files map[string]int
	// ConnBufSize is the request-buffer size (default 8 KiB).
	ConnBufSize int
	// PoolSize is the per-request pool size (default 16 KiB).
	PoolSize uint64
	// MaxBatch is the most pipelined requests of one connection one
	// client event carries, and so the most the hardened worker handles
	// inside a single guard scope (default 16). Longer pipelines are
	// split client-side by Conn.DoPipeline.
	MaxBatch int
	// VerifyClientCerts enables X.509 client-certificate checking of the
	// X-Client-Cert request header — the paper's §V-C integration, where
	// NGINX is compiled against the isolated OpenSSL verification API.
	// In the SDRaD variant the (vulnerable) verifier runs in its own
	// nested domain; in the baselines it runs unprotected.
	VerifyClientCerts bool
	// Seed fixes process randomness.
	Seed int64
	// Telemetry optionally attaches a recorder shared by all worker
	// processes; each worker's monitor and address space feed it.
	Telemetry *telemetry.Recorder
	// Policy optionally attaches a resilience-policy engine, shared by
	// all workers of the master (a UDI names a software component — the
	// parser — so quarantining it covers every worker's instance).
	// While the parser domain is quarantined the worker answers 503
	// with a Retry-After header instead of re-creating the domain; a
	// shedding parser closes its connections.
	Policy *policy.Engine
}

func (c *Config) setDefaults() {
	if c.Variant == 0 {
		c.Variant = VariantVanilla
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Files == nil {
		c.Files = map[string]int{"/index.html": 1024}
	}
	if c.ConnBufSize == 0 {
		c.ConnBufSize = 8 * 1024
	}
	if c.PoolSize == 0 {
		c.PoolSize = 16 * 1024
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Server errors.
var (
	ErrWorkerDown = errors.New("httpd: worker process terminated")
	ErrConnClosed = errors.New("httpd: connection closed")
	ErrTooLarge   = errors.New("httpd: request exceeds connection buffer")
)

// Master supervises the worker processes, mirroring the NGINX master: it
// can restart a crashed worker, losing that worker's connections.
type Master struct {
	cfg      Config
	workers  []*Worker
	restarts atomic.Int64
	rr       atomic.Int64 // PlaceWorker's round-robin cursor
}

// NewMaster builds the master and starts its workers.
func NewMaster(cfg Config) (*Master, error) {
	cfg.setDefaults()
	m := &Master{cfg: cfg}
	for i := 0; i < cfg.Workers; i++ {
		w, err := newWorker(cfg, i)
		if err != nil {
			return nil, err
		}
		m.workers = append(m.workers, w)
	}
	return m, nil
}

// PlaceWorker picks the worker index for a newly accepted connection,
// round-robin.
func (m *Master) PlaceWorker() int {
	return int(m.rr.Add(1)-1) % len(m.workers)
}

// Worker returns worker i.
func (m *Master) Worker(i int) *Worker { return m.workers[i] }

// Workers returns the worker count.
func (m *Master) Workers() int { return len(m.workers) }

// RestartWorker replaces a dead worker process with a fresh one,
// returning the restart duration (the paper's worker-restart latency
// reference point). Existing connections to the old worker are lost.
func (m *Master) RestartWorker(i int) (time.Duration, error) {
	start := time.Now()
	old := m.workers[i]
	old.Stop()
	w, err := newWorker(m.cfg, i)
	if err != nil {
		return 0, err
	}
	m.workers[i] = w
	m.restarts.Add(1)
	return time.Since(start), nil
}

// Restarts reports how many workers were restarted.
func (m *Master) Restarts() int64 { return m.restarts.Load() }

// Stop terminates all workers.
func (m *Master) Stop() {
	for _, w := range m.workers {
		w.Stop()
	}
}

// Worker is one single-threaded worker process (NGINX workers are
// event-loop processes; the simulated thread is its event loop).
type Worker struct {
	*host.Host
	idx int
	cfg Config

	mb     *proc.Mailbox[*Conn]
	files  map[string]fileEntry
	handle *proc.Handle
	// reqs is this worker's native request count; each worker mirrors
	// its own counter into the registry via CounterFunc (callbacks on
	// one name sum), so the request path never touches a counter shared
	// with another worker.
	reqs atomic.Int64

	// Parser-domain state (owned by the worker thread): parserOpts
	// (re-)creates the domain; parseBuf is its request copy, 0 until a
	// scope of the current domain allocates it.
	parserOpts []core.InitOption
	parseBuf   mem.Addr
	pool       *Pool

	// Reused per-event scratch (owned by the worker thread): one slot per
	// request of the current guard scope, and the response header respond
	// assembles before writing it to the connection buffer.
	scratch []reqState
	hdr     []byte
	// wcap sizes every connection's write buffer for the largest
	// configured response, computed once in provision.
	wcap int

	// Client-certificate verification state (§V-C integration).
	verifier  *cryptolib.Verifier // hardened build: isolated verifier
	certStack *stack.Stack        // baselines: unprotected verifier stack
	certBuf   mem.Addr            // baselines: certificate staging buffer
}

// reqState is serve's per-request scratch.
type reqState struct {
	done   bool // result decided before the guard ran (preflight failure)
	perr   error
	parsed Request
}

type fileEntry struct {
	path string // the file's key in the table
	addr mem.Addr
	size int
}

// Conn is a keep-alive client connection pinned to a worker. Its client
// and its worker both write it on every call (the call record), so it
// starts and ends with a cacheline.Pad: two connections allocated in a
// row share no line.
type Conn struct {
	_  cacheline.Pad
	id int
	w  *Worker
	host.ConnBufs
	// call is the record every call of the connection runs on (proc.Call).
	call proc.Call[*Conn]
	_    cacheline.Pad
}

var connIDs atomic.Int64

// newWorker provisions and starts one worker process.
func newWorker(cfg Config, idx int) (*Worker, error) {
	h, err := host.New(host.Config{
		Name:         fmt.Sprintf("nginx-worker-%d-%s", idx, cfg.Variant.String()),
		Seed:         cfg.Seed + int64(idx),
		Variant:      cfg.Variant,
		RootHeap:     heapBudget(cfg),
		BaselineHeap: heapBudget(cfg),
		Telemetry:    cfg.Telemetry,
		Policy:       cfg.Policy,
	})
	if err != nil {
		return nil, err
	}
	w := &Worker{
		Host:       h,
		idx:        idx,
		cfg:        cfg,
		parserOpts: []core.InitOption{core.Accessible(), core.Grant(poolUDI, mem.ProtRW)},
	}
	if cfg.Telemetry != nil {
		cfg.Telemetry.Registry().CounterFunc("sdrad_http_requests_total",
			"HTTP requests processed across all workers.",
			func() int64 { return w.reqs.Load() })
	}
	if err := w.Provision(w.provision); err != nil {
		return nil, fmt.Errorf("httpd: provisioning worker %d: %w", idx, err)
	}
	if cfg.Telemetry != nil && w.pool != nil {
		// Request-pool contention gauges, per worker — the parser-pool
		// analog of the memcache shard occupancy instruments.
		reg := cfg.Telemetry.Registry()
		label := strconv.Itoa(idx)
		w.pool.instrument(
			reg.GaugeVec("sdrad_httpd_pool_high_water_bytes",
				"Deepest request-pool fill seen by each worker, in bytes.", "worker").With(label),
			reg.CounterVec("sdrad_httpd_pool_resets_total",
				"Request-pool resets per worker (one per request that allocated from the pool).", "worker").With(label),
			reg.CounterVec("sdrad_httpd_pool_exhaustions_total",
				"Request-pool allocation failures per worker.", "worker").With(label),
		)
	}
	// No queue: a single-threaded event loop takes one client event at a
	// time, so a start is a rendezvous with it. The mailbox comes last: its
	// sweeper lives until the process goes down, and a worker that failed
	// to provision above is never shut down.
	w.mb = proc.NewMailbox[*Conn](h.Process(), 0, cfg.MaxBatch, ErrWorkerDown)
	w.handle = h.Process().Spawn("event-loop", w.run)
	return w, nil
}

// heapBudget sizes the worker heap: content plus per-connection buffers
// (a read buffer and a write buffer sized for the largest response) for
// maxConns concurrent connections.
func heapBudget(cfg Config) uint64 {
	const maxConns = 128
	var total uint64 = 4 << 20
	maxFile := 0
	for _, sz := range cfg.Files {
		total += uint64(sz) + 4096
		if sz > maxFile {
			maxFile = sz
		}
	}
	total += maxConns * (uint64(cfg.ConnBufSize) + uint64(maxFile) + 2048)
	return total
}

// provision carves the request pool and synthesizes the static content.
func (w *Worker) provision(t *proc.Thread) error {
	c := t.CPU()
	// The request pool is the first allocation, so the memory below it is
	// domain or allocator metadata, not application data. The hardened
	// build keeps pools in a dedicated data domain (paper §V-B); a
	// baseline carves it from the worker heap.
	if err := w.DataDomain(t, poolUDI, w.cfg.PoolSize+64*1024); err != nil {
		return err
	}
	poolBlock, err := w.Alloc(t, poolUDI, w.cfg.PoolSize)
	if err != nil {
		return err
	}
	w.pool = NewPool(poolBlock, w.cfg.PoolSize)
	if w.cfg.VerifyClientCerts && w.Library() == nil {
		// The baseline verifier runs on an ordinary stack with its
		// staging buffer in the worker heap — no isolation.
		p := w.Process()
		base, err := p.AddressSpace().MapAnon(64*1024, mem.ProtRW, 0)
		if err != nil {
			return err
		}
		w.certStack = stack.New(base, 64*1024, p.Rand64())
		buf, err := w.Alloc(t, core.RootUDI, maxCertSize)
		if err != nil {
			return err
		}
		w.certBuf = buf
	}
	// Static content, deterministic bytes, in root/key0 memory.
	w.files = make(map[string]fileEntry, len(w.cfg.Files))
	w.wcap = 1024
	paths := make([]string, 0, len(w.cfg.Files))
	for p := range w.cfg.Files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, path := range paths {
		size := w.cfg.Files[path]
		addr, err := w.Alloc(t, core.RootUDI, uint64(size)+1)
		if err != nil {
			return err
		}
		pattern := []byte(path + "#")
		buf := make([]byte, size)
		for i := range buf {
			buf[i] = pattern[i%len(pattern)]
		}
		c.Write(addr, buf)
		w.files[path] = fileEntry{path: path, addr: addr, size: size}
		w.wcap = max(w.wcap, size+1024)
	}
	return nil
}

// run is the worker's event loop.
func (w *Worker) run(t *proc.Thread) error {
	if lib := w.Library(); lib != nil && w.cfg.VerifyClientCerts {
		w.verifier = cryptolib.NewVerifier(lib, maxCertSize)
	}
	w.mb.Serve(t, func(ev *proc.Event[*Conn]) { w.serve(t, ev.Conn, ev.Reqs, ev.Res) })
	return nil
}

// NewConn opens a keep-alive connection to this worker.
func (w *Worker) NewConn() *Conn {
	c := &Conn{id: int(connIDs.Add(1)), w: w}
	c.call.Bind(w.mb, c)
	return c
}

// Do sends one HTTP request and returns the raw response. A Conn takes
// one call at a time and what a call returns is valid until the
// connection's next call (proc.Call).
func (c *Conn) Do(req []byte) (resp []byte, closed bool, err error) { return c.call.Do(req) }

// PipelineResult is one request's outcome from DoPipeline.
type PipelineResult = proc.Result

// DoPipeline sends reqs back-to-back on the connection and returns one
// result per request, in order. The hardened worker parses up to
// Config.MaxBatch pipelined requests inside a single guard scope; longer
// pipelines are split into MaxBatch-sized chunks client-side. Requests
// behind a server-side close report Closed, as if issued after it.
func (c *Conn) DoPipeline(reqs [][]byte) []PipelineResult { return c.call.Start(reqs).Wait() }

// Inspect runs fn on the worker's event-loop thread between requests. The
// chaos engine uses it to run invariant audits and arm fault injectors on
// the serving thread; fn must leave the thread in the root domain.
func (w *Worker) Inspect(fn func(t *proc.Thread) error) error {
	return w.mb.Inspect(fn)
}

// maxCertSize bounds the client certificates the server accepts.
const maxCertSize = 4096

// checkClientCert verifies the X-Client-Cert header (if present) through
// the X.509 checker carrying the CVE-2022-3786 analog. In the hardened
// build a malicious certificate is absorbed by the verifier domain and
// only the offending connection closes; in the baselines the stack-canary
// failure kills the worker process. A verifier that could not run (its
// domain's memory could not be had, or the policy holds it off) gave no
// verdict: that is an error, not a 403.
func (w *Worker) checkClientCert(t *proc.Thread, conn *Conn, req *Request) (status string, closeConn bool, err error) {
	if req.ClientCert == "" {
		return "", false, nil
	}
	cert := DecodeCertHeader(req.ClientCert)
	if len(cert) > maxCertSize {
		return "HTTP/1.1 403 Forbidden\r\n", false, nil
	}
	if w.verifier != nil {
		res, err := w.verifier.Verify(t, cert)
		if err != nil {
			var abn *core.AbnormalExit
			if errors.As(err, &abn) {
				// The certificate attacked the verifier; the domain is
				// discarded and re-created on the next verification.
				w.CloseConn(t, &conn.ConnBufs)
				return "", true, nil
			}
			if !errors.Is(err, cryptolib.ErrBadCertificate) {
				return "", false, err
			}
			return "HTTP/1.1 403 Forbidden\r\n", false, nil
		}
		if !res.Valid {
			return "HTTP/1.1 403 Forbidden\r\n", false, nil
		}
		return "", false, nil
	}
	// Baseline: the vulnerable verifier runs unprotected. A malicious
	// certificate smashes the canary and the resulting SIGABRT kills the
	// worker (the panic propagates to the process supervisor).
	c := t.CPU()
	c.Write(w.certBuf, cert)
	res, err := cryptolib.VerifyCertificate(c, w.certStack, w.certBuf, len(cert))
	if err != nil || !res.Valid {
		return "HTTP/1.1 403 Forbidden\r\n", false, nil
	}
	return "", false, nil
}

// EncodeCertHeader flattens a certificate blob into a header-safe value.
func EncodeCertHeader(cert []byte) string {
	return strings.ReplaceAll(string(cert), "\n", "|")
}

// DecodeCertHeader reverses EncodeCertHeader.
func DecodeCertHeader(v string) []byte {
	return []byte(strings.ReplaceAll(v, "|", "\n"))
}

// serve is the one request flow every build runs: it parses every request
// of one client event (a plain request is an event of one), then answers
// them in order. The build decides only which steps run. The hardened
// build parses inside ONE guard scope, in the persistent parser domain, on
// a copy of the request bytes: each request enters the domain once
// (request line and headers under one Enter/Exit), and the context save
// and the recovery point are established once for the event. An abnormal
// exit anywhere rewinds once, discards the whole event, and closes its
// connection — the paper's single-event rewind semantics. A baseline
// skips steps ④, ⑤ and ⑦ and parses in place on the connection buffer,
// where a trap kills the worker process.
func (w *Worker) serve(t *proc.Thread, conn *Conn, reqs [][]byte, results []proc.Result) {
	lib := w.Library() // nil on a baseline
	c := t.CPU()
	if cap(w.scratch) < len(reqs) {
		w.scratch = make([]reqState, len(reqs))
	}
	rs := w.scratch[:len(reqs)]
	live := 0
	for i, req := range reqs {
		rs[i] = reqState{}
		switch {
		case conn.Closed:
			rs[i].done = true
			results[i] = proc.Result{Closed: true, Err: ErrConnClosed}
		case len(req) > w.cfg.ConnBufSize:
			rs[i].done = true
			results[i] = proc.Result{Err: ErrTooLarge}
		default:
			live++
		}
	}
	if live == 0 {
		return
	}
	// The persistent parser domain: the first scope creates it and a scope
	// after a rewind re-creates it, both from parserOpts; its recovery
	// point is re-established per event (the paper saves the first parser
	// entry point as the rewind context).
	gerr := w.Scope(t, parserUDI, func() error {
		// Connection buffers are allocated only once the scope is
		// admitted: the degraded path allocates nothing.
		if err := w.open(t, conn); err != nil {
			return err
		}
		if lib != nil && w.parseBuf == 0 {
			// ④ the parser domain's request copy, once per domain.
			buf, err := w.Alloc(t, parserUDI, uint64(w.cfg.ConnBufSize))
			if err != nil {
				return err
			}
			w.parseBuf = buf
		}
		for i, req := range reqs {
			if rs[i].done {
				continue
			}
			// Stage through the connection read buffer: a pipelined
			// connection reuses it per request.
			c.Write(conn.RBuf, req)
			env := &parserEnv{c: c, buf: conn.RBuf, blen: len(req), pool: w.pool, files: w.files}
			if lib != nil {
				// ④ copy into the parser domain, ⑤ enter it.
				lib.Copy(t, w.parseBuf, conn.RBuf, len(req))
				env.buf = w.parseBuf
				if err := lib.Enter(t, parserUDI); err != nil {
					return err
				}
			}
			hdrOff, perr := parseRequestLine(env, &rs[i].parsed)
			if perr == nil {
				perr = parseHeaders(env, &rs[i].parsed, hdrOff)
			}
			if lib != nil {
				// ⑦ exit back to the root domain.
				if err := lib.Exit(t); err != nil {
					return err
				}
			}
			w.pool.Reset(c)
			rs[i].perr = perr
		}
		return nil
	}, w.parserOpts...)
	if gerr != nil {
		var abn *core.AbnormalExit
		if errors.As(gerr, &abn) {
			// Rewind: the parser domain is gone (recreated lazily), one
			// discard for the whole event, and only its connection closes.
			// The pool data domain survives; reset it.
			w.parseBuf = 0
			w.pool.Reset(c)
			w.CloseConn(t, &conn.ConnBufs)
			setLive(rs, results, proc.Result{Closed: true})
			return
		}
		var qe *core.QuarantineError
		if errors.As(gerr, &qe) {
			// Resilience-policy admission, one decision for the whole
			// event: a held-off or quarantined parser runs nothing, and
			// every live request gets the degraded response.
			w.degradeLive(t, conn, rs, results, qe.State, qe.RetryAfterNs)
			return
		}
		setLive(rs, results, proc.Result{Err: gerr})
		return
	}
	// Respond in request order. A response that closes the connection
	// (Connection: close, or a certificate-verifier rewind) closes it for
	// the requests behind it, exactly as if they were issued after it.
	for i := range reqs {
		if rs[i].done {
			continue
		}
		if conn.Closed {
			results[i] = proc.Result{Closed: true, Err: ErrConnClosed}
			continue
		}
		// The one point a request is counted: it is answered on an open
		// connection from a completed scope. A request behind a close,
		// one answered on the degraded path and one discarded by a rewind
		// are not counted.
		w.reqs.Add(1)
		status := ""
		if rs[i].perr == nil && w.cfg.VerifyClientCerts {
			var closed bool
			var err error
			status, closed, err = w.checkClientCert(t, conn, &rs[i].parsed)
			if closed || err != nil {
				results[i] = proc.Result{Closed: closed, Err: err}
				continue
			}
		}
		results[i] = w.respond(t, conn, &rs[i].parsed, rs[i].perr, status)
	}
}

// setLive gives every live request of an event the same result.
func setLive(rs []reqState, results []proc.Result, r proc.Result) {
	for i := range rs {
		if !rs[i].done {
			results[i] = r
		}
	}
}

// degradeLive answers every live request of an event on the degraded
// path (a shed closes the connection for the requests behind it).
func (w *Worker) degradeLive(t *proc.Thread, conn *Conn, rs []reqState, results []proc.Result, state policy.State, retryAfterNs int64) {
	for i := range rs {
		if rs[i].done {
			continue
		}
		if conn.Closed {
			results[i] = proc.Result{Closed: true, Err: ErrConnClosed}
			continue
		}
		results[i] = w.respondDegraded(t, conn, state, retryAfterNs)
	}
}

// respondDegraded is the worker's resilience-policy response: while the
// parser domain is quarantined or backing off the worker answers 503
// Service Unavailable with a Retry-After header covering the remaining
// hold-off (NGINX's standard overload answer), keeping the connection
// open; once the policy escalates to shedding the connection is closed
// outright. The response is synthesized host-side — the degraded path
// deliberately touches no simulated domain memory.
func (w *Worker) respondDegraded(t *proc.Thread, conn *Conn, state policy.State, retryAfterNs int64) proc.Result {
	if state == policy.StateShedding {
		w.ShedConn(t, &conn.ConnBufs)
		return proc.Result{Closed: true}
	}
	w.NoteDegraded()
	secs := (retryAfterNs + int64(time.Second) - 1) / int64(time.Second)
	if secs < 1 {
		secs = 1
	}
	resp := fmt.Sprintf("HTTP/1.1 503 Service Unavailable\r\n"+
		"Server: sdrad-httpd/1.23\r\nRetry-After: %d\r\nContent-Length: 0\r\n"+
		"Connection: keep-alive\r\n\r\n", secs)
	return proc.Result{Resp: []byte(resp)}
}

// respond builds the HTTP response in the connection write buffer.
// statusOverride, when non-empty, replaces the normal status line (403
// from certificate checking).
func (w *Worker) respond(t *proc.Thread, conn *Conn, req *Request, perr error, statusOverride string) proc.Result {
	c := t.CPU()
	var status string
	var body fileEntry
	var haveBody bool
	switch {
	case statusOverride != "":
		status = statusOverride
	case perr != nil:
		status = "HTTP/1.1 400 Bad Request\r\n"
		req.KeepAlive = false
	default:
		if fe, ok := w.files[req.Path]; ok {
			status = "HTTP/1.1 200 OK\r\n"
			body = fe
			haveBody = req.Method != MethodHEAD
		} else {
			status = "HTTP/1.1 404 Not Found\r\n"
		}
	}
	tail := "\r\nConnection: keep-alive\r\n\r\n"
	if !req.KeepAlive {
		tail = "\r\nConnection: close\r\n\r\n"
	}
	h := append(w.hdr[:0], status...)
	h = append(h, "Server: sdrad-httpd/1.23\r\nContent-Length: "...)
	h = strconv.AppendInt(h, int64(body.size), 10)
	h = append(h, tail...)
	w.hdr = h
	wlen := len(h)
	if haveBody {
		wlen += body.size
	}
	if wlen > w.wcap {
		return proc.Result{Err: ErrTooLarge}
	}
	c.Write(conn.WBuf, h)
	if haveBody && body.size > 0 {
		// The file content is copied from the content store to the
		// connection buffer — the per-size cost that shapes Figure 5.
		c.Copy(conn.WBuf+mem.Addr(len(h)), body.addr, body.size)
	}
	// The one copy into caller memory: out of the write buffer through a
	// read lease, into the connection's reply block.
	resp := conn.call.Replies.Read(c, c.SpanLease(conn.WBuf, w.wcap, mem.AccessRead), conn.WBuf, wlen)
	if !req.KeepAlive {
		w.CloseConn(t, &conn.ConnBufs)
	}
	return proc.Result{Resp: resp, Closed: !req.KeepAlive}
}

// open gives a connection its buffers in root memory on its first
// request: a read buffer and a write buffer sized for the largest
// configured response.
func (w *Worker) open(t *proc.Thread, conn *Conn) error {
	return w.OpenConn(t, &conn.ConnBufs, uint64(w.cfg.ConnBufSize), uint64(w.wcap))
}

// FormatRequest builds a simple HTTP/1.1 GET request.
func FormatRequest(path string, keepAlive bool) []byte {
	conn := "keep-alive"
	if !keepAlive {
		conn = "close"
	}
	return []byte(fmt.Sprintf("GET %s HTTP/1.1\r\nHost: bench\r\nConnection: %s\r\n\r\n", path, conn))
}
