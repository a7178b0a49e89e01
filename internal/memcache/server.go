package memcache

import (
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"

	"bytes"

	"sdrad/internal/cacheline"
	"sdrad/internal/core"
	"sdrad/internal/host"
	"sdrad/internal/mem"
	"sdrad/internal/policy"
	"sdrad/internal/proc"
	"sdrad/internal/telemetry"
)

// Variant selects the build under test (Figure 4 of the paper).
type Variant = host.Variant

// Build variants. The hardened build runs every event in an isolated
// domain on deep-copied connection buffers and defers store updates.
const (
	VariantVanilla = host.Vanilla
	VariantTLSF    = host.TLSF
	VariantSDRaD   = host.SDRaD
)

// Domain indices used by the hardened build.
const (
	// storageUDI is the shared data domain holding the hash table and
	// slab memory, accessible by every worker's event domain.
	storageUDI = core.UDI(9)
	// eventUDI is each worker's nested event-handling domain (execution
	// domains are per thread, so every worker uses the same index).
	eventUDI = core.UDI(1)
)

// Config sizes the server.
type Config struct {
	// Variant selects the build (default VariantVanilla).
	Variant Variant
	// Workers is the number of worker threads (default 1).
	Workers int
	// HashPower sets the bucket count to 1<<HashPower (default 14).
	HashPower int
	// CacheBytes is the cache memory limit (default 32 MiB).
	CacheBytes uint64
	// ConnBufSize is the per-connection read/write buffer size
	// (default 16 KiB).
	ConnBufSize int
	// MaxBatch is the most requests one client event — one guard scope,
	// one domain switch, one scratch arena, one deferred-op apply —
	// carries: the chunk size DoPipeline cuts long pipelines into
	// (default 16; 1 disables batching).
	MaxBatch int
	// Seed fixes process randomness.
	Seed int64
	// Telemetry optionally attaches a recorder: the hardened build wires
	// it through the reference monitor, the vanilla build through the
	// address space only (fault events and MMU counters).
	Telemetry *telemetry.Recorder
	// Policy optionally attaches a resilience-policy engine to the
	// hardened build (ignored by baselines). When the event domain is
	// quarantined the server serves gets as misses and refuses mutations
	// with SERVER_ERROR instead of re-creating the domain; a shedding
	// domain's connections are closed outright.
	Policy *policy.Engine
}

func (c *Config) setDefaults() {
	if c.Variant == 0 {
		c.Variant = VariantVanilla
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.HashPower == 0 {
		c.HashPower = 14
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 32 << 20
	}
	if c.ConnBufSize == 0 {
		c.ConnBufSize = 16 * 1024
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// domainScratchSlack is the per-guard-scope scratch headroom beyond the
// connection-buffer copies: request-scoped item staging plus reply
// assembly for a full batch.
const domainScratchSlack = 160 * 1024

// rootHeap is the root heap's ceiling: room for 256 live connections'
// buffers plus slack. The heap grows on demand up to it (core.HeapStep),
// so a server maps what its connections use. A baseline's one heap holds
// the cache as well, under a ceiling that much higher.
func rootHeap(cfg Config) uint64 {
	return uint64(cfg.ConnBufSize)*2*256 + 2<<20
}

// domainHeapSize is the hardened build's per-event-domain heap: one read
// and one write buffer copy per in-flight request plus the scratch slack
// (192 KiB at MaxBatch 1 with 16 KiB buffers).
func domainHeapSize(cfg Config) uint64 {
	return uint64(cfg.MaxBatch)*2*uint64(cfg.ConnBufSize) + domainScratchSlack
}

// Server errors.
var (
	ErrServerDown      = errors.New("memcache: server terminated")
	ErrConnClosed      = errors.New("memcache: connection closed")
	ErrRequestTooLarge = errors.New("memcache: request exceeds connection buffer")
	// errBorrowRevoked fails a batch closed: a slot's read lease would not
	// re-validate after Exit, so the deferred stores borrowing from it were
	// not applied.
	errBorrowRevoked = errors.New("memcache: request window revoked before deferred apply")
)

// Server is one simulated Memcached process.
type Server struct {
	*host.Host
	cfg Config
	st  *Storage

	workers  []*worker
	telBatch *telemetry.Histogram // events per guard scope, nil without telemetry
	rr       atomic.Int64         // NewConn's round-robin placement cursor
	connIDs  atomic.Int64
	// domainOpts creates (and, after a rewind, re-creates) a worker's event
	// domain: accessible, sized for a full batch, granted the database.
	domainOpts []core.InitOption
}

// worker is one serving thread's state. Its record and scratch arrays
// are written on every request, so each sits on cache lines of its own:
// the record starts and ends with a cacheline.Pad, and the arrays come
// from cacheline.Slice and grow through cacheline.Append
// (TestWorkersWriteNoSharedLine). Two workers on two CPUs then never
// write one line.
type worker struct {
	_      cacheline.Pad
	idx    int
	s      *Server
	mb     *proc.Mailbox[*Conn]
	handle *proc.Handle

	// reqs is the worker's native request count. Keeping it per worker
	// (its own cache line, uncontended) and summing at exposition via a
	// CounterFunc is what keeps the enabled-telemetry request path free
	// of shared-counter ping-pong.
	reqs atomic.Int64

	// Hardened-build per-worker domain state (owned by the worker
	// goroutine). slots are per-batch-position connection-buffer copies
	// inside the event domain; a rewind invalidates them along with the
	// domain.
	slots []connSlot

	// Reused per-event scratch (owned by the worker goroutine): the
	// per-request guard-scope state.
	states []evState
	dops   deferredOps

	// env is the worker's reusable drive_machine environment and
	// scratchAddrs its request-scoped scratch allocation list; curT pins
	// the thread the worker is currently serving on. allocScratch is the
	// scratch allocator on the event domain's heap (the baseline heap on
	// a baseline), created once per worker so the per-request path
	// allocates neither environment nor closure.
	env          dmEnv
	scratchAddrs []mem.Addr
	curT         *proc.Thread
	allocScratch func(size uint64) (mem.Addr, error)
	_            cacheline.Pad
}

// connSlot is one pair of connection-buffer deep copies in the event
// domain; batch position i uses slot i. The span leases are minted once
// when the slot is allocated and renewed in O(1) across the batch's
// Enter/Exit transitions; a rewind discards the slot and its leases
// together.
type connSlot struct {
	rbuf mem.Addr
	wbuf mem.Addr
	rl   mem.Lease
	wl   mem.Lease
}

// evState is the per-request outcome scratch dispatchBatch threads
// through the guard scope.
type evState struct {
	done    bool // result decided before the guard ran (preflight failure)
	borrows bool // queued deferred ops that reference the slot's read buffer
	slot    int
	wlen    int
	closeit bool
	derr    error
	data    []byte
}

// Conn is a client connection. All its simulated-memory state is owned by
// the worker it is pinned to. Its client and its worker both write it on
// every call (the call record), so it starts and ends with a
// cacheline.Pad: two connections allocated in a row, each served by its
// own worker, share no line (TestWorkersWriteNoSharedLine).
type Conn struct {
	_  cacheline.Pad
	id int
	w  *worker
	host.ConnBufs
	// call is the record every call of the connection runs on (proc.Call).
	call proc.Call[*Conn]
	_    cacheline.Pad
}

// ID returns the connection id.
func (c *Conn) ID() int { return c.id }

// NewServer builds and starts a server: storage is provisioned, workers
// are spawned, and the server is ready for NewConn/Do.
func NewServer(cfg Config) (*Server, error) {
	cfg.setDefaults()
	h, err := host.New(host.Config{
		Name:         "memcached-" + cfg.Variant.String(),
		Seed:         cfg.Seed,
		Variant:      cfg.Variant,
		RootHeap:     rootHeap(cfg),
		DomainHeap:   domainHeapSize(cfg),
		BaselineHeap: cfg.CacheBytes + rootHeap(cfg),
		Telemetry:    cfg.Telemetry,
		Policy:       cfg.Policy,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{Host: h, cfg: cfg,
		domainOpts: []core.InitOption{core.Accessible(), core.HeapSize(domainHeapSize(cfg)),
			core.Grant(storageUDI, mem.ProtRW)}}
	if err := s.Provision(s.provision); err != nil {
		return nil, fmt.Errorf("memcache: provisioning: %w", err)
	}
	p := s.Process()
	for i := 0; i < cfg.Workers; i++ {
		// The mailbox queues MaxBatch events, so clients can start events
		// while the worker serves one.
		w := &worker{idx: i, s: s, mb: proc.NewMailbox[*Conn](p, cfg.MaxBatch, cfg.MaxBatch, ErrServerDown)}
		w.handle = p.Spawn(fmt.Sprintf("worker-%d", i), w.run)
		s.workers = append(s.workers, w)
	}
	if cfg.Telemetry != nil {
		reg := cfg.Telemetry.Registry()
		workers := s.workers
		reg.CounterFunc("sdrad_memcache_requests_total",
			"Memcached protocol commands processed.",
			func() int64 {
				var n int64
				for _, w := range workers {
					n += w.reqs.Load()
				}
				return n
			})
		s.telBatch = reg.Histogram("sdrad_memcache_batch_size",
			"Requests handled per client event (one guard scope on the hardened build).")
		occ := reg.GaugeVec("sdrad_memcache_shard_items",
			"Live items per storage shard.", "shard")
		for i := 0; i < s.st.Shards(); i++ {
			s.st.setOccupancyGauge(i, occ.With(strconv.Itoa(i)))
		}
		wait := reg.CounterVec("sdrad_memcache_shard_lock_wait_ns",
			"Nanoseconds contended shard-lock acquisitions waited, spinning or parked.", "shard")
		contended := reg.CounterVec("sdrad_memcache_shard_lock_contended_total",
			"Shard-lock acquisitions that found the lock held.", "shard")
		parked := reg.CounterVec("sdrad_memcache_shard_lock_parked_total",
			"Contended shard-lock acquisitions that outlasted the spin budget and parked.", "shard")
		ops := reg.CounterVec("sdrad_memcache_shard_batch_ops",
			"Deferred ops applied through the batch paths per shard.", "shard")
		for i := 0; i < s.st.Shards(); i++ {
			si := strconv.Itoa(i)
			s.st.setContentionCounters(i, shardCounters{
				contended: contended.With(si),
				parked:    parked.With(si),
				waitNs:    wait.With(si),
				batchOps:  ops.With(si),
			})
		}
	}
	return s, nil
}

// provision carves the storage arena (Memcached's slab pages) on the
// init thread. On the hardened build the hash table and database live in
// a dedicated data domain, accessible by the nested event domain of each
// thread (§V-A); a baseline carves them from its one heap.
func (s *Server) provision(t *proc.Thread) error {
	if err := s.DataDomain(t, storageUDI, s.cfg.CacheBytes+1<<20); err != nil { // TLSF control + slack
		return err
	}
	block, err := s.Alloc(t, storageUDI, s.cfg.CacheBytes)
	if err != nil {
		return err
	}
	arena := newBumpArena(block, s.cfg.CacheBytes)
	st, err := NewStorage(t.CPU(), s.cfg.HashPower, storageShards, arena.alloc)
	if err != nil {
		return err
	}
	st.SetArenaBounds(block, s.cfg.CacheBytes)
	s.st = st
	return nil
}

// run is a worker thread's body: each client event is one batch.
func (w *worker) run(t *proc.Thread) error {
	w.mb.Serve(t, func(ev *proc.Event[*Conn]) {
		w.s.dispatchBatch(t, w, ev.Conn, ev.Reqs, ev.Res)
	})
	return nil
}

// dispatchBatch is the one request flow every build runs: the paper's
// Figure 3, amortized over the requests of one client event on conn,
// filling in every request's result. The build decides only which steps
// run. On the hardened build every live request is handled in the worker's
// nested domain on a deep copy of the connection buffer, inside ONE guard
// scope — one context save, one Enter/Exit domain-switch round, one
// deferred-op apply. Database mutations stay deferred to normal domain
// exit (later requests of the event read their predecessors' writes
// through the deferred overlay, preserving sequential semantics); an
// abnormal exit anywhere in the event rewinds once, discards the whole
// event, and closes its connection — and no other, since no guard scope
// spans two events. A baseline skips steps ④, ⑤, ⑦
// and ⑨: it drives each request in place on its connection buffer with
// direct storage ops and no recovery point, so a memory-safety violation
// terminates the whole server — the paper's baseline under CVE-2011-4971.
func (s *Server) dispatchBatch(t *proc.Thread, w *worker, conn *Conn, reqs [][]byte, res []proc.Result) {
	c := t.CPU()
	lib := s.Library() // nil on a baseline
	if w.allocScratch == nil {
		w.allocScratch = func(size uint64) (mem.Addr, error) {
			p, err := s.Alloc(w.curT, eventUDI, size)
			if err == nil {
				w.scratchAddrs = cacheline.Append(w.scratchAddrs, p)
			}
			return p, err
		}
	}
	w.curT = t
	bufSize := uint64(s.cfg.ConnBufSize)
	// Worker-owned scratch: a failed batch may leave stale pending ops
	// behind, so the reset here is also what keeps its mutations from
	// leaking into the next one — and it ends the previous batch's borrows
	// before step ④ overwrites the slot buffers they point into.
	dops := &w.dops
	dops.st = s.st
	dops.truncate(0)
	if cap(w.states) < len(reqs) {
		w.states = cacheline.Slice[evState](len(reqs))
	}
	states := w.states[:len(reqs)]
	live := 0
	for i := range reqs {
		states[i] = evState{}
		if conn.Closed {
			states[i].done = true
			res[i] = proc.Result{Closed: true, Err: ErrConnClosed}
			continue
		}
		if len(reqs[i]) > s.cfg.ConnBufSize {
			states[i].done = true
			res[i] = proc.Result{Err: ErrRequestTooLarge}
			continue
		}
		// A connection gets its buffers in root memory on its first request.
		if err := s.OpenConn(t, &conn.ConnBufs, bufSize, bufSize); err != nil {
			states[i].done = true
			res[i] = proc.Result{Err: err}
			continue
		}
		live++
	}
	if live == 0 {
		return
	}
	// The first scope creates the event domain and a scope after a rewind
	// re-creates it, both from domainOpts (deep copies of the connection
	// buffer are made per event; the database itself is shared, as in the
	// paper).
	gerr := s.Scope(t, eventUDI, func() error {
		if s.telBatch != nil {
			s.telBatch.Observe(int64(live))
		}
		if lib != nil {
			// ④ deep copies: each request is staged through the
			// connection's read buffer (network bytes land in root memory)
			// and copied into the domain slot for its batch position — per
			// request, so a pipelined connection can reuse its read buffer.
			if err := s.copyIn(t, w, conn, reqs, states, live); err != nil {
				return err
			}
			// ⑤ enter the domain once for the batch.
			if err := lib.Enter(t, eventUDI); err != nil {
				return err
			}
		}
		// ⑥ drive_machine per request. Batch-stable environment fields;
		// the request loop only repoints the buffers and leases. The
		// hardened build's storage ops are deferred to ⑨.
		env := &w.env
		*env = dmEnv{
			c:            c,
			wcap:         s.cfg.ConnBufSize,
			allocScratch: w.allocScratch,
			ops:          s.st,
			tokens:       env.tokens,
			scratch:      env.scratch,
		}
		if lib != nil {
			env.ops = dops
		}
		quit := false
		for i := range reqs {
			if states[i].done {
				continue
			}
			// A quit earlier in the event closes the connection for the
			// requests behind it, exactly as if they had arrived after the
			// close.
			if quit {
				states[i].done = true
				res[i] = proc.Result{Closed: true, Err: ErrConnClosed}
				continue
			}
			if lib != nil {
				slot := &w.slots[states[i].slot]
				env.rbuf, env.wbuf = slot.rbuf, slot.wbuf
				env.rl, env.wl = &slot.rl, &slot.wl
			} else {
				// No copy: network bytes land in the connection's read
				// buffer and are driven in place.
				c.Write(conn.RBuf, reqs[i])
				env.rbuf, env.wbuf = conn.RBuf, conn.WBuf
				env.rl = c.SpanLease(conn.RBuf, s.cfg.ConnBufSize, mem.AccessRead)
				env.wl = c.SpanLease(conn.WBuf, s.cfg.ConnBufSize, mem.AccessWrite)
			}
			env.rlen = len(reqs[i])
			env.noreply = false
			w.scratchAddrs = w.scratchAddrs[:0]
			mark := len(dops.pending)
			var derr error
			states[i].wlen, states[i].closeit, derr = driveMachine(env)
			for _, p := range w.scratchAddrs {
				_ = s.Free(t, eventUDI, p)
			}
			if derr != nil {
				// Internal failure for this request only: its deferred
				// ops are rolled back, the rest of the event proceeds (the
				// erroring request applies nothing).
				dops.truncate(mark)
				states[i].derr = derr
				continue
			}
			quit = states[i].closeit
			states[i].borrows = len(dops.pending) > mark
			// ⑧ capture the response straight from the write buffer while
			// it is cache-hot — through its write lease, the one copy into
			// caller memory, carved from the connection's reply block. On
			// the hardened build the domain is reading its own slot; an
			// abnormal exit later in the event discards every captured
			// response with the event.
			states[i].data = conn.call.Replies.Read(c, env.wl, env.wbuf, states[i].wlen)
		}
		if lib == nil {
			return nil
		}
		// ⑦ exit back to the root domain once.
		if err := lib.Exit(t); err != nil {
			return err
		}
		// ⑨ apply the deferred database updates for the whole event,
		// grouped per storage shard. The ops borrow their keys and values
		// from the slot read buffers, so the apply reads event-domain memory
		// with root rights: each slot it will read from has its lease
		// re-validated first, and a refusal fails the event closed —
		// nothing is applied, every live request reports the error.
		for i := range states {
			if states[i].borrows {
				if _, ok := w.slots[states[i].slot].rl.Window(); !ok {
					return errBorrowRevoked
				}
			}
		}
		return dops.apply(c)
	}, s.domainOpts...)
	if gerr != nil {
		var abn *core.AbnormalExit
		if errors.As(gerr, &abn) {
			// ⑫-⑭ rewind happened: the domain, its buffer copies, and the
			// whole event (including its un-applied deferred ops) are
			// gone; close the event's connection and keep serving.
			w.slots = w.slots[:0]
			dops.truncate(0)
			s.CloseConn(t, &conn.ConnBufs)
			setLive(states, res, proc.Result{Closed: true})
			return
		}
		// Resilience-policy admission: while the event domain is held off
		// or quarantined, Guard runs nothing and the event is served on the
		// degraded path — no domain re-creation, no guard scope.
		var qe *core.QuarantineError
		if errors.As(gerr, &qe) {
			s.serveDegraded(t, conn, reqs, res, states, qe.State == policy.StateShedding)
			return
		}
		setLive(states, res, proc.Result{Err: gerr})
		return
	}
	// The one point a request is counted: drive_machine answered it and
	// the scope completed. A request behind a close, one answered on the
	// degraded path and one discarded by a rewind are not counted.
	for i := range reqs {
		if states[i].done {
			continue
		}
		w.reqs.Add(1)
		if states[i].derr != nil {
			res[i] = proc.Result{Err: states[i].derr}
			continue
		}
		if states[i].closeit {
			s.CloseConn(t, &conn.ConnBufs)
		}
		res[i] = proc.Result{Resp: states[i].data, Closed: states[i].closeit}
	}
}

// copyIn is step ④ of the hardened flow: it gives the event's live
// requests a domain slot each (allocating slots the domain does not hold
// yet) and copies every request, staged through the connection's read
// buffer, into its slot.
func (s *Server) copyIn(t *proc.Thread, w *worker, conn *Conn, reqs [][]byte, states []evState, live int) error {
	c := t.CPU()
	bufSize := uint64(s.cfg.ConnBufSize)
	for len(w.slots) < live {
		rb, err := s.Alloc(t, eventUDI, bufSize)
		if err != nil {
			return err
		}
		wb, err := s.Alloc(t, eventUDI, bufSize)
		if err != nil {
			return err
		}
		// Mint the slot's span leases once; Enter/Exit transitions only
		// cost the O(1) renewal recheck from here on.
		w.slots = cacheline.Append(w.slots, connSlot{
			rbuf: rb,
			wbuf: wb,
			rl:   c.NewLease(rb, s.cfg.ConnBufSize, mem.AccessRead),
			wl:   c.NewLease(wb, s.cfg.ConnBufSize, mem.AccessWrite),
		})
	}
	slot := 0
	for i := range reqs {
		if states[i].done {
			continue
		}
		c.Write(conn.RBuf, reqs[i])
		s.Library().Copy(t, w.slots[slot].rbuf, conn.RBuf, len(reqs[i]))
		states[i].slot = slot
		slot++
	}
	return nil
}

// setLive gives every live request of an event the same result.
func setLive(states []evState, res []proc.Result, r proc.Result) {
	for i := range states {
		if !states[i].done {
			res[i] = r
		}
	}
}

// serveDegraded answers an event while the event domain is quarantined:
// gets are served as misses straight from root memory (the cached data
// died with the discarded domain state's trust anyway — a miss is the
// safe answer), quits close cleanly, and mutations are refused with
// SERVER_ERROR so clients back off. A shedding domain drops the
// connection outright. Nothing here touches the guard scope or the
// shared database, which is the point: the degraded path costs no
// domain re-creation.
func (s *Server) serveDegraded(t *proc.Thread, conn *Conn, reqs [][]byte, res []proc.Result, states []evState, shedding bool) {
	for i, req := range reqs {
		if states[i].done {
			continue
		}
		if shedding {
			s.ShedConn(t, &conn.ConnBufs)
			res[i] = proc.Result{Closed: true, Err: ErrConnClosed}
			continue
		}
		s.NoteDegraded()
		switch {
		case bytes.HasPrefix(req, []byte("get ")), bytes.HasPrefix(req, []byte("gets ")):
			res[i] = proc.Result{Resp: []byte("END\r\n")}
		case bytes.HasPrefix(req, []byte("quit")):
			s.CloseConn(t, &conn.ConnBufs)
			res[i] = proc.Result{Closed: true}
		default:
			res[i] = proc.Result{Resp: []byte("SERVER_ERROR event domain quarantined\r\n")}
		}
	}
}

// InlineDo serves one request synchronously on an inline worker thread
// created by RunInline.
type InlineDo func(conn *Conn, req []byte) (resp []byte, closed bool, err error)

// RunInline runs body on a dedicated worker thread that both issues and
// serves requests, with no event-channel hop in between. It exists for
// low-noise benchmarking (single-core CI machines drown the variant
// differences in scheduler noise otherwise); the serving path is exactly
// the one the event loop uses. Connections passed to the returned InlineDo
// must have been created by the NewConn method of this call's handle.
func (s *Server) RunInline(name string, body func(newConn func() *Conn, do InlineDo) error) error {
	w := &worker{idx: -1, s: s}
	h := s.Process().Spawn(name, func(t *proc.Thread) error {
		newConn := func() *Conn {
			return &Conn{id: int(s.connIDs.Add(1)), w: w}
		}
		do := func(conn *Conn, req []byte) ([]byte, bool, error) {
			reqs, res := conn.call.Inline(req)
			s.dispatchBatch(t, w, conn, reqs, res)
			return res[0].Resp, res[0].Closed, res[0].Err
		}
		return body(newConn, do)
	})
	return h.Join()
}

// NewConn opens a client connection pinned to a worker, round-robin.
func (s *Server) NewConn() *Conn {
	c := &Conn{
		id: int(s.connIDs.Add(1)),
		w:  s.workers[int(s.rr.Add(1)-1)%len(s.workers)],
	}
	c.call.Bind(c.w.mb, c)
	return c
}

// WorkerIndex reports which worker the connection is pinned to (tests
// and the benchmark's placement check read it).
func (c *Conn) WorkerIndex() int { return c.w.idx }

// Do sends one request on the connection and waits for the response.
// closed reports that the server closed the connection (quit command or
// attack recovery). A Conn takes one call at a time and what a call
// returns is valid until the connection's next call (proc.Call).
func (c *Conn) Do(req []byte) (resp []byte, closed bool, err error) { return c.call.Do(req) }

// PipelineResult is one request's outcome from DoPipeline or Start.
type PipelineResult = proc.Result

// DoPipeline sends reqs back-to-back on the connection and returns one
// result per request, in order. The server handles up to MaxBatch
// pipelined requests of one connection inside a single guard scope —
// one domain switch round, one scratch arena, one deferred-op apply —
// which is where the batched hardened build earns its throughput
// (longer pipelines are split into MaxBatch-sized chunks client-side).
// Requests behind a server-side close (quit, or attack recovery) report
// Closed with ErrConnClosed, exactly as if they were issued after it.
func (c *Conn) DoPipeline(reqs [][]byte) []PipelineResult { return c.call.Start(reqs).Wait() }

// Start is the enqueue half of DoPipeline: it returns once the requests
// are in the worker's queue, and the handle's Wait returns their results.
// The call lasts until that Wait. Sequential Starts on distinct
// connections against a worker parked in an Inspect stage an exact
// backlog (up to MaxBatch events) with no goroutine per client and no
// clock.
func (c *Conn) Start(reqs ...[]byte) *proc.Call[*Conn] { return c.call.Start(reqs) }

// MaxBatch returns the server's configured guard-scope batch limit.
func (s *Server) MaxBatch() int { return s.cfg.MaxBatch }

// Inspect runs fn on the worker thread that owns this connection, like a
// request but with the worker's thread handed to the closure. The chaos
// engine uses it to run invariant audits and arm fault injectors on the
// serving thread between events; fn must leave the thread in the root
// domain.
func (c *Conn) Inspect(fn func(t *proc.Thread) error) error {
	return c.w.mb.Inspect(fn)
}

// StorageStats returns cache statistics.
func (s *Server) StorageStats() StorageStats { return s.st.Stats() }

// Storage exposes the shared database, for invariant audits (run it on
// the owning worker thread via Conn.Inspect).
func (s *Server) Storage() *Storage { return s.st }
