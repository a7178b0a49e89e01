package memcache

import (
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"

	"bytes"

	"sdrad/internal/core"
	"sdrad/internal/host"
	"sdrad/internal/mem"
	"sdrad/internal/policy"
	"sdrad/internal/proc"
	"sdrad/internal/sched"
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
	// Shards is the number of lock-striped storage shards (rounded up
	// to a power of two, default 8, max MaxShards). A key's shard is a
	// pure function of its hash; 1 is a single-mutex cache.
	Shards int
	// MaxBatch is the ceiling of each worker's adaptive drain bound: the
	// most requests one guard scope — one domain switch, one scratch
	// arena, one deferred-op apply — is ever asked to hold, and the chunk
	// size DoPipeline cuts long pipelines into (default 16; 1 disables
	// batching).
	MaxBatch int
	// Sched carries the drain-bound controller's wiring: a clock (test
	// seam) and the floor-pin hook. The controller itself is not optional;
	// the zero value is the default, with floor pins fed to Policy when
	// one is attached.
	Sched sched.Config
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
	if c.Shards == 0 {
		c.Shards = 8
	}
	if c.Shards > MaxShards {
		c.Shards = MaxShards
	}
	for c.Shards&(c.Shards-1) != 0 {
		c.Shards++
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

type worker struct {
	idx    int
	s      *Server
	mb     *proc.Mailbox[*Conn]
	handle *proc.Handle

	// ctrl is the worker's adaptive batch-bound controller.
	ctrl *sched.Controller

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

	// Reused per-batch scratch (owned by the worker goroutine): the
	// requests of the current drain round's events, flattened, and the
	// per-request guard-scope state.
	items  []batchItem
	states []evState
	dops   deferredOps
	// rw is the worker's reusable reply assembler; drive_machine builds
	// every response of a batch through it, so the steady state allocates
	// nothing per request.
	rw replyState

	// env is the worker's reusable drive_machine environment and
	// scratchAddrs its request-scoped scratch allocation list; curT pins
	// the thread the worker is currently serving on. allocBase and
	// allocDomain are the two scratch allocators, created once per worker
	// so the per-request path allocates neither environment nor closure.
	env          dmEnv
	scratchAddrs []mem.Addr
	curT         *proc.Thread
	allocBase    func(size uint64) (mem.Addr, error)
	allocDomain  func(size uint64) (mem.Addr, error)
}

// initAllocators lazily creates the worker's persistent scratch-allocator
// closures (they capture only the worker, reading the current thread and
// CPU from its per-call fields).
func (w *worker) initAllocators(s *Server) {
	if w.allocBase != nil {
		return
	}
	w.allocBase = func(size uint64) (mem.Addr, error) {
		p, err := s.Alloc(w.curT, size)
		if err == nil {
			w.scratchAddrs = append(w.scratchAddrs, p)
		}
		return p, err
	}
	w.allocDomain = func(size uint64) (mem.Addr, error) {
		p, err := s.Library().Malloc(w.curT, eventUDI, size)
		if err == nil {
			w.scratchAddrs = append(w.scratchAddrs, p)
		}
		return p, err
	}
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

// batchItem is one request of one event, flattened into the worker's
// current batch (a pipelined event contributes one item per request). res
// points into the issuing event's result slice, which the worker fills in
// place (the hand-off's ownership rule is in proc/handoff.go).
type batchItem struct {
	conn *Conn
	req  []byte
	res  *proc.Result
}

// evState is the per-item outcome scratch runHardenedBatch threads
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
// the worker it is pinned to.
type Conn struct {
	id int
	w  *worker
	host.ConnBufs
}

// ID returns the connection id.
func (c *Conn) ID() int { return c.id }

// NewServer builds and starts a server: storage is provisioned, workers
// are spawned, and the server is ready for NewConn/Do.
func NewServer(cfg Config) (*Server, error) {
	cfg.setDefaults()
	// Root memory holds 256 live connections' buffers plus slack; a
	// baseline's one heap holds the cache as well.
	rootHeap := uint64(cfg.ConnBufSize)*2*256 + 2<<20
	h, err := host.New(host.Config{
		Name:         "memcached-" + cfg.Variant.String(),
		Seed:         cfg.Seed,
		Variant:      cfg.Variant,
		RootHeap:     rootHeap,
		DomainHeap:   domainHeapSize(cfg),
		BaselineHeap: cfg.CacheBytes + rootHeap,
		Telemetry:    cfg.Telemetry,
		Policy:       cfg.Policy,
		PressureUDI:  eventUDI,
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
		// The mailbox queues MaxBatch events so pipelining clients can
		// enqueue a full batch before the worker drains it.
		w := &worker{idx: i, s: s, mb: proc.NewMailbox[*Conn](p, cfg.MaxBatch, cfg.MaxBatch, ErrServerDown),
			ctrl: s.NewController(cfg.Sched, cfg.MaxBatch)}
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
			"Client events handled per guard scope by the batched event loop.")
		occ := reg.GaugeVec("sdrad_memcache_shard_items",
			"Live items per storage shard.", "shard")
		for i := 0; i < s.st.Shards(); i++ {
			s.st.setOccupancyGauge(i, occ.With(strconv.Itoa(i)))
		}
		bound := reg.GaugeVec("sdrad_sched_batch_bound",
			"Adaptive drain-batch bound per worker.", "worker")
		for _, w := range s.workers {
			w.ctrl.SetBoundGauge(bound.With(strconv.Itoa(w.idx)))
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
// init thread: out of a shared storage data domain on the hardened build,
// out of root memory otherwise.
func (s *Server) provision(t *proc.Thread) error {
	alloc := s.Alloc
	if lib := s.Library(); lib != nil {
		// The hash table and database live in a dedicated data domain,
		// accessible by the nested event domain of each thread (§V-A).
		heapSz := s.cfg.CacheBytes + 1<<20 // TLSF control + slack
		if err := lib.InitDomain(t, storageUDI, core.AsData(), core.Accessible(), core.HeapSize(heapSz)); err != nil {
			return err
		}
		alloc = func(t *proc.Thread, size uint64) (mem.Addr, error) { return lib.Malloc(t, storageUDI, size) }
	}
	block, err := alloc(t, s.cfg.CacheBytes)
	if err != nil {
		return err
	}
	arena := newBumpArena(block, s.cfg.CacheBytes)
	st, err := NewStorage(t.CPU(), s.cfg.HashPower, s.cfg.Shards, arena.alloc)
	if err != nil {
		return err
	}
	st.SetArenaBounds(block, s.cfg.CacheBytes)
	s.st = st
	return nil
}

// run is a worker thread's body: the event loop.
func (w *worker) run(t *proc.Thread) error {
	s := w.s
	defer w.mb.Leave()
	for {
		ev := w.mb.Next()
		if ev == nil {
			return nil
		}
		if ev.Inspect != nil {
			ev.RunInspect(t)
			w.mb.FinishRound()
			continue
		}
		// Drain up to the controller's current bound of pending requests
		// into one batch. The first event of a round is taken whole (a
		// pipelined event is never split); an inspect event or one that
		// would overflow the bound is put back and leads the next round, so
		// event order is preserved.
		bound := w.ctrl.Bound()
		w.items = w.items[:0]
		w.take(ev)
		for len(w.items) < bound {
			ev2 := w.mb.TryNext()
			if ev2 == nil {
				break
			}
			if ev2.Inspect != nil || len(w.items)+len(ev2.Reqs) > bound {
				w.mb.PutBack(ev2)
				break
			}
			w.take(ev2)
		}
		r := w.ctrl.BeginRound(len(w.items), w.mb.Len)
		s.dispatchBatch(t, w, w.items)
		w.ctrl.EndRound(r, w.mb.Len)
		w.mb.FinishRound()
	}
}

// take adds an event to the current round, flattening its requests into
// the batch.
func (w *worker) take(ev *proc.Event[*Conn]) {
	for i, r := range ev.Reqs {
		w.items = append(w.items, batchItem{conn: ev.Conn, req: r, res: &ev.Res[i]})
	}
}

// dispatchBatch handles a drained batch of client events, filling in
// every item's result. The hardened build handles the whole batch inside
// a single guard scope; baselines handle items one by one (they have no
// per-event domain cost to amortize).
func (s *Server) dispatchBatch(t *proc.Thread, w *worker, items []batchItem) {
	if s.cfg.Variant != VariantSDRaD {
		for i := range items {
			*items[i].res = s.handleOne(t, w, items[i].conn, items[i].req)
		}
		return
	}
	s.runHardenedBatch(t, w, items)
}

// handleOne is the per-request baseline flow: preflight checks, stage
// the request in the connection read buffer, run drive_machine.
func (s *Server) handleOne(t *proc.Thread, w *worker, conn *Conn, req []byte) proc.Result {
	if conn.Closed {
		return proc.Result{Closed: true, Err: ErrConnClosed}
	}
	if len(req) > s.cfg.ConnBufSize {
		return proc.Result{Err: ErrRequestTooLarge}
	}
	w.reqs.Add(1)
	if err := s.open(t, conn); err != nil {
		return proc.Result{Err: err}
	}
	// Network bytes land in the connection's read buffer (root memory).
	t.CPU().Write(conn.RBuf, req)
	return s.handleBaseline(t, w, conn, len(req))
}

// handleBaseline runs drive_machine directly on the connection buffer. A
// memory-safety violation faults with no recovery point: the process
// supervisor terminates the whole server, which is exactly the behaviour
// the paper's baseline exhibits under CVE-2011-4971.
func (s *Server) handleBaseline(t *proc.Thread, w *worker, conn *Conn, rlen int) proc.Result {
	c := t.CPU()
	w.initAllocators(s)
	w.curT = t
	w.scratchAddrs = w.scratchAddrs[:0]
	env := &w.env
	*env = dmEnv{
		c:            c,
		rbuf:         conn.RBuf,
		rlen:         rlen,
		wbuf:         conn.WBuf,
		wcap:         s.cfg.ConnBufSize,
		allocScratch: w.allocBase,
		ops:          s.st,
		rl:           c.SpanLease(conn.RBuf, s.cfg.ConnBufSize, mem.AccessRead),
		wl:           c.SpanLease(conn.WBuf, s.cfg.ConnBufSize, mem.AccessWrite),
		reply:        &w.rw,
		tokens:       env.tokens,
	}
	wlen, closeit, err := driveMachine(env)
	for _, p := range w.scratchAddrs {
		_ = s.Free(t, p)
	}
	if err != nil {
		return proc.Result{Err: err}
	}
	resp := materializeResp(c, env.wl, conn.WBuf, wlen)
	if closeit {
		s.CloseConn(t, &conn.ConnBufs)
	}
	return proc.Result{Resp: resp, Closed: closeit}
}

// materializeResp copies a drive_machine response out of simulated
// memory into a fresh Go slice for delivery to the client — through the
// write lease's native window when it is valid, through the checked
// reader otherwise.
func materializeResp(c *mem.CPU, wl *mem.Lease, wbuf mem.Addr, wlen int) []byte {
	if wlen <= 0 {
		return nil
	}
	if wl != nil {
		if b, ok := wl.Bytes(wbuf, wlen); ok {
			out := make([]byte, wlen)
			copy(out, b)
			return out
		}
	}
	return c.ReadBytes(wbuf, wlen)
}

// open gives a connection its buffers in root memory on its first
// request.
func (s *Server) open(t *proc.Thread, conn *Conn) error {
	sz := uint64(s.cfg.ConnBufSize)
	return s.OpenConn(t, &conn.ConnBufs, sz, sz)
}

// runHardenedBatch is the paper's Figure 3 flow, amortized over a batch:
// every live item of the batch is handled in the worker's nested domain
// on a deep copy of its connection buffer, inside ONE guard scope — one
// context save, one Enter/Exit domain-switch round, one deferred-op
// apply. Database mutations stay deferred to normal domain exit (later
// items of the batch read their predecessors' writes through the
// deferred overlay, preserving sequential semantics); an abnormal exit
// anywhere in the batch rewinds once, discards the whole in-flight
// batch, and closes exactly the connections that had a request in it.
func (s *Server) runHardenedBatch(t *proc.Thread, w *worker, items []batchItem) {
	c := t.CPU()
	lib := s.Library()
	w.initAllocators(s)
	w.curT = t
	bufSize := uint64(s.cfg.ConnBufSize)
	// Worker-owned scratch: a failed batch may leave stale pending ops
	// behind, so the reset here is also what keeps its mutations from
	// leaking into the next one — and it ends the previous batch's borrows
	// before step ④ overwrites the slot buffers they point into.
	dops := &w.dops
	dops.st = s.st
	dops.truncate(0)
	if cap(w.states) < len(items) {
		w.states = make([]evState, len(items))
	}
	states := w.states[:len(items)]
	live := 0
	for i := range items {
		states[i] = evState{}
		conn := items[i].conn
		if conn.Closed {
			states[i].done = true
			*items[i].res = proc.Result{Closed: true, Err: ErrConnClosed}
			continue
		}
		if len(items[i].req) > s.cfg.ConnBufSize {
			states[i].done = true
			*items[i].res = proc.Result{Err: ErrRequestTooLarge}
			continue
		}
		w.reqs.Add(1)
		if err := s.open(t, conn); err != nil {
			states[i].done = true
			*items[i].res = proc.Result{Err: err}
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
	gerr := lib.Guard(t, eventUDI, func() error {
		if s.telBatch != nil {
			s.telBatch.Observe(int64(live))
		}
		for len(w.slots) < live {
			rb, err := lib.Malloc(t, eventUDI, bufSize)
			if err != nil {
				return err
			}
			wb, err := lib.Malloc(t, eventUDI, bufSize)
			if err != nil {
				return err
			}
			// Mint the slot's span leases once; Enter/Exit transitions
			// only cost the O(1) renewal recheck from here on.
			w.slots = append(w.slots, connSlot{
				rbuf: rb,
				wbuf: wb,
				rl:   c.NewLease(rb, s.cfg.ConnBufSize, mem.AccessRead),
				wl:   c.NewLease(wb, s.cfg.ConnBufSize, mem.AccessWrite),
			})
		}
		// ④ deep copies: each request is staged through its connection's
		// read buffer (network bytes land in root memory) and copied into
		// the domain slot for its batch position — per item, so a
		// pipelined connection can reuse its read buffer.
		slot := 0
		for i := range items {
			if states[i].done {
				continue
			}
			conn := items[i].conn
			c.Write(conn.RBuf, items[i].req)
			lib.Copy(t, w.slots[slot].rbuf, conn.RBuf, len(items[i].req))
			states[i].slot = slot
			slot++
		}
		// ⑤ enter the domain once, ⑥ drive_machine per item on its copy.
		if err := lib.Enter(t, eventUDI); err != nil {
			return err
		}
		// Batch-stable environment fields; the item loop only repoints the
		// buffers and leases at each item's slot.
		env := &w.env
		*env = dmEnv{
			c:            c,
			wcap:         s.cfg.ConnBufSize,
			allocScratch: w.allocDomain,
			ops:          dops,
			reply:        &w.rw,
			tokens:       env.tokens,
		}
		for i := range items {
			if states[i].done {
				continue
			}
			// A quit earlier in the batch closes the connection for the
			// items behind it, exactly as if they had arrived after the
			// close in the unbatched flow.
			if closedEarlierInBatch(items, states, i) {
				states[i].done = true
				*items[i].res = proc.Result{Closed: true, Err: ErrConnClosed}
				continue
			}
			slot := &w.slots[states[i].slot]
			w.scratchAddrs = w.scratchAddrs[:0]
			env.rbuf, env.rlen = slot.rbuf, len(items[i].req)
			env.wbuf = slot.wbuf
			env.rl, env.wl = &slot.rl, &slot.wl
			env.noreply = false
			mark := len(dops.pending)
			var derr error
			states[i].wlen, states[i].closeit, derr = driveMachine(env)
			for _, p := range w.scratchAddrs {
				_ = lib.Free(t, eventUDI, p)
			}
			if derr != nil {
				// Internal failure for this item only: its deferred ops
				// are rolled back, the rest of the batch proceeds — the
				// same isolation the unbatched flow gives (the erroring
				// event applied nothing).
				dops.truncate(mark)
				states[i].derr = derr
				continue
			}
			states[i].borrows = len(dops.pending) > mark
			// ⑧ capture the response straight from the slot write buffer
			// while it is cache-hot — through the slot's write lease, one
			// copy into the Go-side delivery slice, replacing the old
			// slot→conn-buffer staging copy plus read-back. The domain is
			// reading its own buffer; an abnormal exit later in the batch
			// discards every captured response with the batch.
			states[i].data = materializeResp(c, &slot.wl, slot.wbuf, states[i].wlen)
		}
		// ⑦ exit back to the root domain once.
		if err := lib.Exit(t); err != nil {
			return err
		}
		// ⑨ apply the deferred database updates for the whole batch,
		// grouped per storage shard. The ops borrow their keys and values
		// from the slot read buffers, so the apply reads event-domain memory
		// with root rights: each slot it will read from has its lease
		// re-validated first, and a refusal fails the batch closed — nothing
		// is applied, every live item reports the error.
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
			// whole in-flight batch (including its un-applied deferred
			// ops) are gone; close every connection with a request in the
			// batch and keep serving.
			w.slots = w.slots[:0]
			dops.truncate(0)
			// Multiplicative decrease: the next batches risk less
			// collateral while the rewind window stays hot.
			w.ctrl.NoteRewind()
			for i := range items {
				if !states[i].done {
					s.CloseConn(t, &items[i].conn.ConnBufs)
					*items[i].res = proc.Result{Closed: true}
				}
			}
			return
		}
		// Resilience-policy admission: while the event domain is held off
		// or quarantined, Guard runs nothing and the batch is served on the
		// degraded path — no domain re-creation, no guard scope.
		var qe *core.QuarantineError
		if errors.As(gerr, &qe) {
			s.serveDegraded(t, items, states, qe.State == policy.StateShedding)
			return
		}
		for i := range items {
			if !states[i].done {
				*items[i].res = proc.Result{Err: gerr}
			}
		}
		return
	}
	for i := range items {
		if states[i].done {
			continue
		}
		if states[i].derr != nil {
			*items[i].res = proc.Result{Err: states[i].derr}
			continue
		}
		if states[i].closeit {
			s.CloseConn(t, &items[i].conn.ConnBufs)
		}
		*items[i].res = proc.Result{Resp: states[i].data, Closed: states[i].closeit}
	}
}

// serveDegraded answers a batch while the event domain is quarantined:
// gets are served as misses straight from root memory (the cached data
// died with the discarded domain state's trust anyway — a miss is the
// safe answer), quits close cleanly, and mutations are refused with
// SERVER_ERROR so clients back off. A shedding domain drops its
// connections outright. Nothing here touches the guard scope or the
// shared database, which is the point: the degraded path costs no
// domain re-creation.
func (s *Server) serveDegraded(t *proc.Thread, items []batchItem, states []evState, shedding bool) {
	for i := range items {
		if states[i].done {
			continue
		}
		conn := &items[i].conn.ConnBufs
		if shedding {
			s.ShedConn(t, conn)
			*items[i].res = proc.Result{Closed: true, Err: ErrConnClosed}
			continue
		}
		s.NoteDegraded()
		req := items[i].req
		switch {
		case bytes.HasPrefix(req, []byte("get ")), bytes.HasPrefix(req, []byte("gets ")):
			*items[i].res = proc.Result{Resp: []byte("END\r\n")}
		case bytes.HasPrefix(req, []byte("quit")):
			s.CloseConn(t, conn)
			*items[i].res = proc.Result{Closed: true}
		default:
			*items[i].res = proc.Result{Resp: []byte("SERVER_ERROR event domain quarantined\r\n")}
		}
	}
}

// closedEarlierInBatch reports whether an earlier live item of the
// current batch closed item i's connection (quit command).
func closedEarlierInBatch(items []batchItem, states []evState, i int) bool {
	for j := 0; j < i; j++ {
		if !states[j].done && states[j].derr == nil && states[j].closeit &&
			items[j].conn == items[i].conn {
			return true
		}
	}
	return false
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
	w := &worker{idx: -1, s: s, ctrl: s.NewController(s.cfg.Sched, s.cfg.MaxBatch)}
	h := s.Process().Spawn(name, func(t *proc.Thread) error {
		newConn := func() *Conn {
			return &Conn{id: int(s.connIDs.Add(1)), w: w}
		}
		// A batch of one on the worker's own scratch: every path of
		// dispatchBatch overwrites the whole result.
		var res proc.Result
		do := func(conn *Conn, req []byte) ([]byte, bool, error) {
			w.items = append(w.items[:0], batchItem{conn: conn, req: req, res: &res})
			s.dispatchBatch(t, w, w.items)
			return res.Resp, res.Closed, res.Err
		}
		return body(newConn, do)
	})
	return h.Join()
}

// NewConn opens a client connection pinned to a worker, round-robin.
func (s *Server) NewConn() *Conn {
	return &Conn{
		id: int(s.connIDs.Add(1)),
		w:  s.workers[int(s.rr.Add(1)-1)%len(s.workers)],
	}
}

// WorkerIndex reports which worker the connection is pinned to (chaos
// campaigns assert placement decisions through it).
func (c *Conn) WorkerIndex() int { return c.w.idx }

// Do sends one request on the connection and waits for the response.
// closed reports that the server closed the connection (quit command or
// attack recovery). A Conn must not be shared by concurrent Do callers.
func (c *Conn) Do(req []byte) (resp []byte, closed bool, err error) {
	return c.w.mb.Do(c, req)
}

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
func (c *Conn) DoPipeline(reqs [][]byte) []PipelineResult {
	return c.w.mb.DoPipeline(c, reqs)
}

// Start is the enqueue half of DoPipeline: it returns once the requests
// are in the worker's queue, and the handle's Wait returns their results.
// Sequential Starts against a worker parked in an Inspect stage an exact
// backlog (up to MaxBatch events) with no goroutine per client and no
// clock.
func (c *Conn) Start(reqs ...[]byte) *proc.Pending[*Conn] {
	return c.w.mb.Start(c, reqs)
}

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

// SchedSnapshots returns each worker's adaptive-controller snapshot.
func (s *Server) SchedSnapshots() []sched.Snapshot {
	out := make([]sched.Snapshot, len(s.workers))
	for i, w := range s.workers {
		out[i] = w.ctrl.Snapshot()
	}
	return out
}
