package httpd

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"sdrad/internal/core"
	"sdrad/internal/cryptolib"
	"sdrad/internal/galloc"
	"sdrad/internal/mem"
	"sdrad/internal/policy"
	"sdrad/internal/proc"
	"sdrad/internal/sched"
	"sdrad/internal/stack"
	"sdrad/internal/telemetry"
	"sdrad/internal/tlsf"
)

// Variant selects the build under test (Figure 5 of the paper).
type Variant int

// Build variants.
const (
	// VariantVanilla is the unmodified baseline.
	VariantVanilla Variant = iota + 1
	// VariantTLSF swaps the allocator only.
	VariantTLSF
	// VariantSDRaD runs the HTTP parser in an accessible persistent
	// nested domain with per-request pools in a data domain.
	VariantSDRaD
)

func (v Variant) String() string {
	switch v {
	case VariantVanilla:
		return "vanilla"
	case VariantTLSF:
		return "tlsf"
	case VariantSDRaD:
		return "sdrad"
	default:
		return "unknown"
	}
}

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
	// MaxBatch is the ceiling of the worker's adaptive batch bound: the
	// most pipelined requests of one connection the hardened worker ever
	// handles inside a single guard scope (default 16). Longer pipelines
	// are split client-side by Conn.DoPipeline, and the worker chunks
	// each event to the controller's live bound (grown under load,
	// shrunk while the rewind window is hot).
	MaxBatch int
	// Sched carries the batch-bound controller's wiring: a clock (test
	// seam) and the floor-pin hook. The controller itself is not optional;
	// the zero value is the default, with floor pins fed to Policy when
	// one is attached.
	Sched sched.Config
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
	if cfg.Sched.OnFloorPinned == nil && cfg.Policy != nil && cfg.Variant == VariantSDRaD {
		// A controller pinned at the AIMD floor by a hot rewind window
		// is sustained pressure on the parser domain: feed it to the
		// policy engine as a backoff signal.
		eng := cfg.Policy
		cfg.Sched.OnFloorPinned = func(int64) { eng.OnPressure(int(parserUDI)) }
	}
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
	idx int
	cfg Config
	p   *proc.Process
	lib *core.Library // hardened build only

	mb       *proc.Mailbox[*Conn]
	alloc    connAllocator
	files    map[string]fileEntry
	degraded atomic.Int64 // 503s served while the parser was quarantined
	shed     atomic.Int64 // connections closed by load shedding
	handle   *proc.Handle
	// reqs is this worker's native request count; each worker mirrors
	// its own counter into the registry via CounterFunc (callbacks on
	// one name sum), so the request path never touches a counter shared
	// with another worker.
	reqs atomic.Int64

	// ctrl is the adaptive batch-bound controller.
	ctrl *sched.Controller

	// Parser-domain state (owned by the worker thread): parserOpts
	// (re-)creates the domain; parseBuf is its request copy, 0 until a
	// scope of the current domain allocates it.
	parserOpts []core.InitOption
	parseBuf   mem.Addr
	pool       *Pool

	// Reused per-batch scratch (owned by the worker thread): one slot per
	// request of the current guard scope, and the response header respond
	// assembles before writing it to the connection buffer.
	scratch []reqState
	hdr     []byte
	// maxFile is the largest configured file, computed once in provision;
	// it sizes every connection's write buffer.
	maxFile int

	// Client-certificate verification state (§V-C integration).
	verifier  *cryptolib.Verifier // hardened build: isolated verifier
	certStack *stack.Stack        // baselines: unprotected verifier stack
	certBuf   mem.Addr            // baselines: certificate staging buffer
}

// reqState is runHardenedBatch's per-request scratch.
type reqState struct {
	done   bool // result decided before the guard ran (preflight failure)
	perr   error
	parsed Request
}

type fileEntry struct {
	addr mem.Addr
	size int
}

// Conn is a keep-alive client connection pinned to a worker.
type Conn struct {
	id     int
	w      *Worker
	rbuf   mem.Addr
	wbuf   mem.Addr
	wcap   int
	ready  bool
	closed bool
}

var connIDs atomic.Int64

// connAllocator abstracts the per-variant malloc for worker state.
type connAllocator interface {
	Alloc(c *mem.CPU, size uint64) (mem.Addr, error)
	Free(c *mem.CPU, ptr mem.Addr) error
}

type gallocShim struct{ h *galloc.Heap }

func (g gallocShim) Alloc(c *mem.CPU, size uint64) (mem.Addr, error) { return g.h.Alloc(c, size) }
func (g gallocShim) Free(c *mem.CPU, ptr mem.Addr) error             { return g.h.Free(c, ptr) }

type tlsfShim struct{ h *tlsf.Heap }

func (t tlsfShim) Alloc(c *mem.CPU, size uint64) (mem.Addr, error) { return t.h.Alloc(c, size) }
func (t tlsfShim) Free(c *mem.CPU, ptr mem.Addr) error             { return t.h.Free(c, ptr) }

// newWorker provisions and starts one worker process.
func newWorker(cfg Config, idx int) (*Worker, error) {
	w := &Worker{
		idx:  idx,
		cfg:  cfg,
		p:    proc.NewProcess(fmt.Sprintf("nginx-worker-%d-%s", idx, cfg.Variant.String()), proc.WithSeed(cfg.Seed+int64(idx))),
		ctrl: sched.NewController(cfg.Sched, cfg.MaxBatch),
	}
	if cfg.Variant == VariantSDRaD {
		opts := []core.SetupOption{core.WithRootHeapSize(heapBudget(cfg))}
		if cfg.Telemetry != nil {
			opts = append(opts, core.WithTelemetry(cfg.Telemetry))
		}
		if cfg.Policy != nil {
			opts = append(opts, core.WithPolicy(cfg.Policy))
		}
		lib, err := core.Setup(w.p, opts...)
		if err != nil {
			return nil, err
		}
		w.lib = lib
		w.parserOpts = []core.InitOption{core.Accessible(), core.Grant(poolUDI, mem.ProtRW)}
	} else if cfg.Telemetry != nil {
		w.p.AddressSpace().SetTelemetry(cfg.Telemetry)
	}
	if cfg.Telemetry != nil {
		cfg.Telemetry.Registry().CounterFunc("sdrad_http_requests_total",
			"HTTP requests processed across all workers.",
			func() int64 { return w.reqs.Load() })
	}
	if err := w.p.Attach("init", w.provision); err != nil {
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
	w.mb = proc.NewMailbox[*Conn](w.p, 0, cfg.MaxBatch, ErrWorkerDown)
	w.handle = w.p.Spawn("event-loop", w.run)
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

// provision maps the worker heap and synthesizes the static content.
func (w *Worker) provision(t *proc.Thread) error {
	c := t.CPU()
	switch w.cfg.Variant {
	case VariantSDRaD:
		// Request pools live in a dedicated data domain (paper §V-B);
		// allocate it before anything else so the memory below a pool is
		// domain metadata, not application data.
		if err := w.lib.InitDomain(t, poolUDI, core.AsData(), core.Accessible(),
			core.HeapSize(w.cfg.PoolSize+64*1024)); err != nil {
			return err
		}
		poolBlock, err := w.lib.Malloc(t, poolUDI, w.cfg.PoolSize)
		if err != nil {
			return err
		}
		w.pool = NewPool(poolBlock, w.cfg.PoolSize)
	case VariantTLSF:
		base, err := w.p.AddressSpace().MapAnon(int(heapBudget(w.cfg)), mem.ProtRW, 0)
		if err != nil {
			return err
		}
		h, err := tlsf.Init(c, base, heapBudget(w.cfg))
		if err != nil {
			return err
		}
		w.alloc = tlsfShim{h: h}
	case VariantVanilla:
		base, err := w.p.AddressSpace().MapAnon(int(heapBudget(w.cfg)), mem.ProtRW, 0)
		if err != nil {
			return err
		}
		h, err := galloc.Init(c, base, heapBudget(w.cfg))
		if err != nil {
			return err
		}
		w.alloc = gallocShim{h: h}
	}
	if w.cfg.Variant != VariantSDRaD {
		// The baseline request pool comes from the worker heap, allocated
		// first so the memory below it is allocator metadata.
		poolBlock, err := w.alloc.Alloc(c, w.cfg.PoolSize)
		if err != nil {
			return err
		}
		w.pool = NewPool(poolBlock, w.cfg.PoolSize)
	}
	if w.cfg.VerifyClientCerts && w.cfg.Variant != VariantSDRaD {
		// The baseline verifier runs on an ordinary stack with its
		// staging buffer in the worker heap — no isolation.
		base, err := w.p.AddressSpace().MapAnon(64*1024, mem.ProtRW, 0)
		if err != nil {
			return err
		}
		w.certStack = stack.New(base, 64*1024, w.p.Rand64())
		buf, err := w.alloc.Alloc(c, maxCertSize)
		if err != nil {
			return err
		}
		w.certBuf = buf
	}
	// Static content, deterministic bytes, in root/key0 memory.
	w.files = make(map[string]fileEntry, len(w.cfg.Files))
	paths := make([]string, 0, len(w.cfg.Files))
	for p := range w.cfg.Files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, path := range paths {
		size := w.cfg.Files[path]
		addr, err := w.allocRoot(t, uint64(size)+1)
		if err != nil {
			return err
		}
		pattern := []byte(path + "#")
		buf := make([]byte, size)
		for i := range buf {
			buf[i] = pattern[i%len(pattern)]
		}
		c.Write(addr, buf)
		w.files[path] = fileEntry{addr: addr, size: size}
		w.maxFile = max(w.maxFile, size)
	}
	return nil
}

// allocRoot allocates from root memory in the way the variant provides.
func (w *Worker) allocRoot(t *proc.Thread, size uint64) (mem.Addr, error) {
	if w.cfg.Variant == VariantSDRaD {
		return w.lib.Malloc(t, core.RootUDI, size)
	}
	return w.alloc.Alloc(t.CPU(), size)
}

// run is the worker's event loop.
func (w *Worker) run(t *proc.Thread) error {
	if w.cfg.Variant == VariantSDRaD && w.cfg.VerifyClientCerts {
		w.verifier = cryptolib.NewVerifier(w.lib, maxCertSize)
	}
	defer w.mb.Leave()
	for {
		ev := w.mb.Next()
		if ev == nil {
			return nil
		}
		if ev.Inspect != nil {
			ev.RunInspect(t)
		} else {
			w.serve(t, ev.Conn, ev.Reqs, ev.Res)
		}
		w.mb.FinishRound()
	}
}

// NewConn opens a keep-alive connection to this worker.
func (w *Worker) NewConn() *Conn {
	return &Conn{id: int(connIDs.Add(1)), w: w}
}

// Do sends one HTTP request and returns the raw response.
func (c *Conn) Do(req []byte) (resp []byte, closed bool, err error) {
	return c.w.mb.Do(c, req)
}

// PipelineResult is one request's outcome from DoPipeline.
type PipelineResult = proc.Result

// DoPipeline sends reqs back-to-back on the connection and returns one
// result per request, in order. The hardened worker parses up to
// Config.MaxBatch pipelined requests inside a single guard scope; longer
// pipelines are split into MaxBatch-sized chunks client-side. Requests
// behind a server-side close report Closed, as if issued after it.
func (c *Conn) DoPipeline(reqs [][]byte) []PipelineResult {
	return c.w.mb.DoPipeline(c, reqs)
}

// Inspect runs fn on the worker's event-loop thread between requests. The
// chaos engine uses it to run invariant audits and arm fault injectors on
// the serving thread; fn must leave the thread in the root domain.
func (w *Worker) Inspect(fn func(t *proc.Thread) error) error {
	return w.mb.Inspect(fn)
}

// Stop terminates the worker process.
func (w *Worker) Stop() {
	w.p.Shutdown()
	w.p.Wait()
}

// Crashed reports whether the worker process died with a cause.
func (w *Worker) Crashed() (bool, error) {
	if !w.p.Killed() {
		return false, nil
	}
	return w.p.ExitError() != nil, w.p.ExitError()
}

// Rewinds reports recovered parser and certificate-verifier attacks (0
// for the baselines).
func (w *Worker) Rewinds() int64 {
	if w.lib == nil {
		return 0
	}
	return w.lib.Stats().Rewinds.Load()
}

// SchedSnapshot returns the worker's adaptive-controller state.
func (w *Worker) SchedSnapshot() sched.Snapshot { return w.ctrl.Snapshot() }

// Degraded reports 503 responses served while the parser domain was
// quarantined.
func (w *Worker) Degraded() int64 { return w.degraded.Load() }

// Shed reports connections closed by load shedding.
func (w *Worker) Shed() int64 { return w.shed.Load() }

// MappedBytes is the worker's resident-set-size analog.
func (w *Worker) MappedBytes() int64 {
	return w.p.AddressSpace().Stats().MappedBytes.Load()
}

// Process exposes the worker's simulated process.
func (w *Worker) Process() *proc.Process { return w.p }

// Library exposes the SDRaD library (nil for baselines).
func (w *Worker) Library() *core.Library { return w.lib }

// serve handles one client event: a pipelined batch, or a plain request
// as a batch of one. Baselines have no guard cost to amortize and run
// the requests back to back. The hardened build cuts the event into
// chunks of the controller's live bound, each chunk one guard scope (one
// context save, one recovery point), so a rewind while the window is hot
// discards less of the pipeline; the bound regrows between chunks under
// sustained depth.
func (w *Worker) serve(t *proc.Thread, conn *Conn, reqs [][]byte, results []proc.Result) {
	if w.cfg.Variant != VariantSDRaD {
		for i, req := range reqs {
			results[i] = w.handleRequest(t, conn, req)
		}
		return
	}
	for off := 0; off < len(reqs); {
		end := min(off+w.ctrl.Bound(), len(reqs))
		backlog := len(reqs) - end
		if backlog == 0 && end-off == 1 && w.ctrl.AtFloor() {
			// Idle floor fast path: a lone request cannot move a controller
			// already at bound 1 with a cold rewind window, so the round
			// skips the clock reads and the observation.
			w.runHardenedBatch(t, conn, reqs[off:end], results[off:end])
			break
		}
		t0 := w.ctrl.Now()
		w.runHardenedBatch(t, conn, reqs[off:end], results[off:end])
		w.ctrl.ObserveRound(backlog, end-off, w.ctrl.Now()-t0)
		off = end
	}
}

// handleRequest is the baselines' sequential per-request flow.
func (w *Worker) handleRequest(t *proc.Thread, conn *Conn, reqBytes []byte) proc.Result {
	if conn.closed {
		return proc.Result{Closed: true, Err: ErrConnClosed}
	}
	if len(reqBytes) > w.cfg.ConnBufSize {
		return proc.Result{Err: ErrTooLarge}
	}
	w.reqs.Add(1)
	c := t.CPU()
	if !conn.ready {
		if err := w.allocConnBuffers(t, conn); err != nil {
			return proc.Result{Err: err}
		}
	}
	c.Write(conn.rbuf, reqBytes)

	var req Request
	env := &parserEnv{c: c, buf: conn.rbuf, blen: len(reqBytes), pool: w.pool}
	hdrOff, perr := parseRequestLine(env, &req)
	if perr == nil {
		perr = parseHeaders(env, &req, hdrOff)
	}
	w.pool.Reset(c)
	status := ""
	if perr == nil && w.cfg.VerifyClientCerts {
		var closed bool
		status, closed = w.checkClientCert(t, conn, &req)
		if closed {
			return proc.Result{Closed: true}
		}
	}
	return w.respond(t, conn, &req, perr, status)
}

// maxCertSize bounds the client certificates the server accepts.
const maxCertSize = 4096

// checkClientCert verifies the X-Client-Cert header (if present) through
// the X.509 checker carrying the CVE-2022-3786 analog. In the hardened
// build a malicious certificate is absorbed by the verifier domain and
// only the offending connection closes; in the baselines the stack-canary
// failure kills the worker process.
func (w *Worker) checkClientCert(t *proc.Thread, conn *Conn, req *Request) (status string, closeConn bool) {
	if req.ClientCert == "" {
		return "", false
	}
	cert := DecodeCertHeader(req.ClientCert)
	if len(cert) > maxCertSize {
		return "HTTP/1.1 403 Forbidden\r\n", false
	}
	if w.cfg.Variant == VariantSDRaD {
		res, err := w.verifier.Verify(t, cert)
		if err != nil {
			var abn *core.AbnormalExit
			if errors.As(err, &abn) {
				// The certificate attacked the verifier; the domain is
				// discarded and re-created on the next verification.
				conn.closed = true
				w.freeConnBuffers(t, conn)
				return "", true
			}
			return "HTTP/1.1 403 Forbidden\r\n", false
		}
		if !res.Valid {
			return "HTTP/1.1 403 Forbidden\r\n", false
		}
		return "", false
	}
	// Baseline: the vulnerable verifier runs unprotected. A malicious
	// certificate smashes the canary and the resulting SIGABRT kills the
	// worker (the panic propagates to the process supervisor).
	c := t.CPU()
	c.Write(w.certBuf, cert)
	res, err := cryptolib.VerifyCertificate(c, w.certStack, w.certBuf, len(cert))
	if err != nil || !res.Valid {
		return "HTTP/1.1 403 Forbidden\r\n", false
	}
	return "", false
}

// EncodeCertHeader flattens a certificate blob into a header-safe value.
func EncodeCertHeader(cert []byte) string {
	return strings.ReplaceAll(string(cert), "\n", "|")
}

// DecodeCertHeader reverses EncodeCertHeader.
func DecodeCertHeader(v string) []byte {
	return []byte(strings.ReplaceAll(v, "|", "\n"))
}

// runHardenedBatch parses every request of one chunk of a client event
// inside ONE guard scope, in the persistent parser domain, on a copy of
// the request bytes: each request enters the domain once (request line
// and headers under one Enter/Exit), and the context save and the
// recovery point are established once for the chunk. An abnormal
// exit anywhere rewinds once, discards the whole in-flight chunk, and
// closes the connection — the paper's single-event rewind semantics,
// which the chunk of one is exactly.
func (w *Worker) runHardenedBatch(t *proc.Thread, conn *Conn, reqs [][]byte, results []proc.Result) []proc.Result {
	lib := w.lib
	c := t.CPU()
	if cap(w.scratch) < len(reqs) {
		w.scratch = make([]reqState, len(reqs))
	}
	rs := w.scratch[:len(reqs)]
	live := 0
	for i, req := range reqs {
		rs[i] = reqState{}
		switch {
		case conn.closed:
			rs[i].done = true
			results[i] = proc.Result{Closed: true, Err: ErrConnClosed}
		case len(req) > w.cfg.ConnBufSize:
			rs[i].done = true
			results[i] = proc.Result{Err: ErrTooLarge}
		default:
			w.reqs.Add(1)
			live++
		}
	}
	if live == 0 {
		return results
	}
	// The persistent parser domain: the first scope creates it and a scope
	// after a rewind re-creates it, both from parserOpts; its recovery
	// point is re-established per chunk (the paper saves the first parser
	// entry point as the rewind context).
	gerr := lib.Guard(t, parserUDI, func() error {
		// Connection buffers are allocated only once the scope is
		// admitted: the degraded path allocates nothing.
		if !conn.ready {
			if err := w.allocConnBuffers(t, conn); err != nil {
				return err
			}
		}
		if w.parseBuf == 0 {
			buf, err := lib.Malloc(t, parserUDI, uint64(w.cfg.ConnBufSize))
			if err != nil {
				return err
			}
			w.parseBuf = buf
		}
		for i, req := range reqs {
			if rs[i].done {
				continue
			}
			// Stage through the connection read buffer (a pipelined
			// connection reuses it per request) and copy into the domain.
			c.Write(conn.rbuf, req)
			lib.Copy(t, w.parseBuf, conn.rbuf, len(req))
			env := &parserEnv{c: c, buf: w.parseBuf, blen: len(req), pool: w.pool}
			if err := lib.Enter(t, parserUDI); err != nil {
				return err
			}
			hdrOff, perr := parseRequestLine(env, &rs[i].parsed)
			if perr == nil {
				perr = parseHeaders(env, &rs[i].parsed, hdrOff)
			}
			if err := lib.Exit(t); err != nil {
				return err
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
			// discard for the whole chunk, and only the connection with a
			// request in flight closes. The pool data domain survives;
			// reset it.
			w.parseBuf = 0
			w.pool.Reset(c)
			w.ctrl.NoteRewind()
			if !conn.closed {
				conn.closed = true
				w.freeConnBuffers(t, conn)
			}
			return setLive(rs, results, proc.Result{Closed: true})
		}
		var qe *core.QuarantineError
		if errors.As(gerr, &qe) {
			// Resilience-policy admission, one decision for the whole
			// chunk: a held-off or quarantined parser runs nothing, and
			// every live request gets the degraded response.
			return w.degradeLive(t, conn, rs, results, qe.State, qe.RetryAfterNs)
		}
		return setLive(rs, results, proc.Result{Err: gerr})
	}
	// Respond in batch order. A response that closes the connection
	// (Connection: close, or a certificate-verifier rewind) closes it for
	// the requests behind it, exactly as in the sequential flow.
	for i := range reqs {
		if rs[i].done {
			continue
		}
		if conn.closed {
			results[i] = proc.Result{Closed: true, Err: ErrConnClosed}
			continue
		}
		status := ""
		if rs[i].perr == nil && w.cfg.VerifyClientCerts {
			var closed bool
			status, closed = w.checkClientCert(t, conn, &rs[i].parsed)
			if closed {
				results[i] = proc.Result{Closed: true}
				continue
			}
		}
		results[i] = w.respond(t, conn, &rs[i].parsed, rs[i].perr, status)
	}
	return results
}

// setLive gives every live request of a chunk the same result.
func setLive(rs []reqState, results []proc.Result, r proc.Result) []proc.Result {
	for i := range rs {
		if !rs[i].done {
			results[i] = r
		}
	}
	return results
}

// degradeLive answers every live request of a chunk on the degraded
// path (a shed closes the connection for the requests behind it).
func (w *Worker) degradeLive(t *proc.Thread, conn *Conn, rs []reqState, results []proc.Result, state policy.State, retryAfterNs int64) []proc.Result {
	for i := range rs {
		if rs[i].done {
			continue
		}
		if conn.closed {
			results[i] = proc.Result{Closed: true, Err: ErrConnClosed}
			continue
		}
		results[i] = w.respondDegraded(t, conn, state, retryAfterNs)
	}
	return results
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
		if !conn.closed {
			conn.closed = true
			w.freeConnBuffers(t, conn)
			w.shed.Add(1)
		}
		return proc.Result{Closed: true}
	}
	w.degraded.Add(1)
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
	if wlen > conn.wcap {
		return proc.Result{Err: ErrTooLarge}
	}
	c.Write(conn.wbuf, h)
	if haveBody && body.size > 0 {
		// The file content is copied from the content store to the
		// connection buffer — the per-size cost that shapes Figure 5.
		c.Copy(conn.wbuf+mem.Addr(len(h)), body.addr, body.size)
	}
	resp := c.ReadBytes(conn.wbuf, wlen)
	if !req.KeepAlive {
		conn.closed = true
		w.freeConnBuffers(t, conn)
	}
	return proc.Result{Resp: resp, Closed: !req.KeepAlive}
}

// freeConnBuffers releases a closed connection's buffers back to the
// worker heap.
func (w *Worker) freeConnBuffers(t *proc.Thread, conn *Conn) {
	if !conn.ready {
		return
	}
	if w.cfg.Variant == VariantSDRaD {
		_ = w.lib.Free(t, core.RootUDI, conn.rbuf)
		_ = w.lib.Free(t, core.RootUDI, conn.wbuf)
	} else {
		_ = w.alloc.Free(t.CPU(), conn.rbuf)
		_ = w.alloc.Free(t.CPU(), conn.wbuf)
	}
	conn.ready = false
}

// allocConnBuffers provisions connection buffers sized for the largest
// configured response.
func (w *Worker) allocConnBuffers(t *proc.Thread, conn *Conn) error {
	conn.wcap = w.maxFile + 1024
	rb, err := w.allocRoot(t, uint64(w.cfg.ConnBufSize))
	if err != nil {
		return err
	}
	wb, err := w.allocRoot(t, uint64(conn.wcap))
	if err != nil {
		return err
	}
	conn.rbuf, conn.wbuf = rb, wb
	conn.ready = true
	return nil
}

// FormatRequest builds a simple HTTP/1.1 GET request.
func FormatRequest(path string, keepAlive bool) []byte {
	conn := "keep-alive"
	if !keepAlive {
		conn = "close"
	}
	return []byte(fmt.Sprintf("GET %s HTTP/1.1\r\nHost: bench\r\nConnection: %s\r\n\r\n", path, conn))
}
