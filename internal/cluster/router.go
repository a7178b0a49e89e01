package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sdrad/internal/memcache"
	"sdrad/internal/telemetry"
)

// Backend names one hardened memcached backend.
type Backend struct {
	// Name is the stable identity hashed onto the ring; key placement
	// follows names, not addresses.
	Name string
	// Addr is the TCP address the backend serves the memcached protocol
	// on.
	Addr string
	// MetricsURL, when non-empty, is the backend's telemetry
	// /metrics.json endpoint; the router polls it for failure-aware
	// routing (policy ladder state, rewind rate).
	MetricsURL string
}

// Config parameterizes a Router.
type Config struct {
	Backends []Backend
	// VirtualNodes per backend on the ring (default 64).
	VirtualNodes int
	// PoolSize is the number of pooled connections per backend (default
	// 2 — each client connection's fan-out borrows one for the duration
	// of an exchange, so the pool bounds per-backend concurrency).
	PoolSize int
	// DialTimeout/IOTimeout bound backend exchanges (defaults 5s / 10s;
	// the IO timeout is what turns a hung backend into a routed-around
	// backend instead of a stuck client).
	DialTimeout time.Duration
	IOTimeout   time.Duration
	// Health tunes the demotion/readmission ladder.
	Health HealthConfig
	// PollInterval is the background telemetry poll period; 0 disables
	// the background poller (PollOnce still works — the router tests
	// drive polls manually for determinism).
	PollInterval time.Duration
	// Fetch retrieves a metrics URL (default FetchMetrics; tests stub
	// it).
	Fetch func(url string) ([]byte, error)

	// MaxInboundBatch caps how many pipelined inbound requests join one
	// fan-out round (default 64).
	MaxInboundBatch int
	// Telemetry, when non-nil, receives router metrics.
	Telemetry *telemetry.Recorder
	// Logf, when non-nil, receives routing state transitions.
	Logf func(format string, args ...any)
}

func (c *Config) setDefaults() {
	if c.PoolSize <= 0 {
		c.PoolSize = 2
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.IOTimeout <= 0 {
		c.IOTimeout = 10 * time.Second
	}
	if c.MaxInboundBatch <= 0 {
		c.MaxInboundBatch = 64
	}
	if c.Fetch == nil {
		c.Fetch = FetchMetrics
	}
}

// pool is a bounded set of idle connections to one backend.
type pool struct {
	addr        string
	idle        chan *Client
	dialTimeout time.Duration
	ioTimeout   time.Duration
}

func (p *pool) get() (*Client, error) {
	select {
	case c := <-p.idle:
		return c, nil
	default:
		return Dial(p.addr, p.dialTimeout, p.ioTimeout)
	}
}

func (p *pool) put(c *Client) {
	select {
	case p.idle <- c:
	default:
		_ = c.Close()
	}
}

func (p *pool) drain() {
	for {
		select {
		case c := <-p.idle:
			_ = c.Close()
		default:
			return
		}
	}
}

// Router is the cluster front-end: it accepts memcached text-protocol
// clients, consistent-hashes keys onto backends, fans pipelined batches
// out per backend concurrently, and reassembles replies in inbound
// order. Routing is failure-aware: demoted backends are skipped and
// their keys spill to ring successors.
type Router struct {
	cfg    Config
	ring   *Ring
	health *Health
	pools  []*pool

	done    chan struct{}
	closing atomic.Bool
	wg      sync.WaitGroup

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	// metrics (nil without telemetry)
	mReqs      *telemetry.CounterVec
	mErrors    *telemetry.CounterVec
	mHealth    *telemetry.GaugeVec
	mSpills    *telemetry.Counter
	mDemotions *telemetry.Counter
	mReadmits  *telemetry.Counter
	mFanoutLat *telemetry.Histogram
	mClients   *telemetry.Gauge
	mPollErrs  *telemetry.Counter
}

// NewRouter builds a router over the configured backends.
func NewRouter(cfg Config) (*Router, error) {
	cfg.setDefaults()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one backend")
	}
	names := make([]string, len(cfg.Backends))
	for i, b := range cfg.Backends {
		names[i] = b.Name
	}
	ring, err := NewRing(names, cfg.VirtualNodes)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		cfg:    cfg,
		ring:   ring,
		health: NewHealth(names, cfg.Health),
		pools:  make([]*pool, len(cfg.Backends)),
		done:   make(chan struct{}),
		conns:  map[net.Conn]struct{}{},
	}
	for i, b := range cfg.Backends {
		rt.pools[i] = &pool{
			addr:        b.Addr,
			idle:        make(chan *Client, cfg.PoolSize),
			dialTimeout: cfg.DialTimeout,
			ioTimeout:   cfg.IOTimeout,
		}
	}
	if cfg.Telemetry != nil {
		reg := cfg.Telemetry.Registry()
		rt.mReqs = reg.CounterVec("sdrad_router_requests_total",
			"Requests routed, by backend.", "backend")
		rt.mErrors = reg.CounterVec("sdrad_router_backend_errors_total",
			"Backend exchange failures (dial, timeout, torn reply), by backend.", "backend")
		rt.mHealth = reg.GaugeVec("sdrad_router_backend_health",
			"Backend ladder state (0 up, 1 probation, 2 demoted).", "backend")
		rt.mSpills = reg.Counter("sdrad_router_spills_total",
			"Requests served by a ring successor because the primary was demoted.")
		rt.mDemotions = reg.Counter("sdrad_router_demotions_total",
			"Backends demoted (I/O failures, policy state, rewind rate).")
		rt.mReadmits = reg.Counter("sdrad_router_readmissions_total",
			"Backends readmitted on probation after a hold-off expired.")
		rt.mFanoutLat = reg.Histogram("sdrad_router_fanout_latency_ns",
			"Per-backend pipelined exchange latency, nanoseconds.")
		rt.mClients = reg.Gauge("sdrad_router_client_connections",
			"Live client connections.")
		rt.mPollErrs = reg.Counter("sdrad_router_poll_errors_total",
			"Telemetry poll failures (fetch or parse).")
		for _, n := range names {
			rt.mHealth.With(n).Set(0)
		}
	}
	rt.health.OnChange(func(b int, from, to HealthState, reason string) {
		if rt.mHealth != nil {
			rt.mHealth.With(names[b]).Set(int64(to))
			switch to {
			case HealthDemoted:
				rt.mDemotions.Add(1)
			case HealthProbation:
				rt.mReadmits.Add(1)
			}
		}
		if cfg.Logf != nil {
			cfg.Logf("cluster: backend %s %s -> %s (%s)", names[b], from, to, reason)
		}
	})
	if cfg.PollInterval > 0 {
		rt.wg.Add(1)
		go rt.pollLoop()
	}
	return rt, nil
}

// Health exposes the ladder for dumps and test assertions.
func (rt *Router) Health() *Health { return rt.health }

// Ring exposes the key placement for tests.
func (rt *Router) Ring() *Ring { return rt.ring }

// pollLoop is the background telemetry poller.
func (rt *Router) pollLoop() {
	defer rt.wg.Done()
	t := time.NewTicker(rt.cfg.PollInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.done:
			return
		case <-t.C:
			rt.PollOnce()
		}
	}
}

// PollOnce fetches every backend's /metrics.json once and feeds the
// results into the health ladder. Backends without a MetricsURL are
// skipped (their health is driven by exchange outcomes alone). Fetch or
// parse failures count a metric but do NOT demote: a missing telemetry
// endpoint is not a missing backend — the data path has its own failure
// detector.
func (rt *Router) PollOnce() {
	for i, b := range rt.cfg.Backends {
		if b.MetricsURL == "" {
			continue
		}
		body, err := rt.cfg.Fetch(b.MetricsURL)
		if err != nil {
			if rt.mPollErrs != nil {
				rt.mPollErrs.Add(1)
			}
			continue
		}
		bt, err := ParseMetricsJSON(body)
		if err != nil {
			if rt.mPollErrs != nil {
				rt.mPollErrs.Add(1)
			}
			continue
		}
		rt.health.ObserveTelemetry(i, bt)
	}
}

// Serve accepts clients on ln until Stop (or a listener error). One
// goroutine per client connection; each connection's pipelined batches
// fan out concurrently per backend.
func (rt *Router) Serve(ln net.Listener) error {
	go func() {
		<-rt.done
		_ = ln.Close()
	}()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if rt.closing.Load() {
				return nil
			}
			return err
		}
		rt.connMu.Lock()
		rt.conns[nc] = struct{}{}
		rt.connMu.Unlock()
		if rt.mClients != nil {
			rt.mClients.Add(1)
		}
		rt.wg.Add(1)
		go rt.serveConn(nc)
	}
}

// Stop closes the listener and every live client connection, then waits
// for the serving goroutines. A router that returns from Stop has no
// stuck connections (TestRouterSpillsAroundDeadBackend asserts Stop
// completes with a client still connected).
func (rt *Router) Stop() {
	if rt.closing.Swap(true) {
		return
	}
	close(rt.done)
	rt.connMu.Lock()
	for nc := range rt.conns {
		_ = nc.Close()
	}
	rt.connMu.Unlock()
	rt.wg.Wait()
	for _, p := range rt.pools {
		p.drain()
	}
}

// reqKind classifies a framed request for routing.
type reqKind int

const (
	kindRead reqKind = iota
	kindWrite
	kindQuit
	kindVersion
	kindFlushAll
	kindUnroutable
)

// classify returns the request kind and routing key.
func classify(req []byte) (reqKind, string) {
	if len(req) == 0 || req[0] == memcache.BinMagicRequest {
		return kindUnroutable, ""
	}
	nl := bytes.IndexByte(req, '\n')
	if nl < 0 {
		nl = len(req)
	}
	fields := bytes.Fields(bytes.TrimRight(req[:nl], "\r\n"))
	if len(fields) == 0 {
		return kindUnroutable, ""
	}
	cmd := string(fields[0])
	switch cmd {
	case "quit":
		return kindQuit, ""
	case "version":
		return kindVersion, ""
	case "flush_all":
		return kindFlushAll, ""
	case "get", "gets":
		if len(fields) < 2 {
			return kindUnroutable, ""
		}
		return kindRead, string(fields[1])
	case "set", "add", "replace", "append", "prepend", "cas",
		"delete", "touch", "incr", "decr", "bset":
		if len(fields) < 2 {
			return kindUnroutable, ""
		}
		return kindWrite, string(fields[1])
	}
	return kindUnroutable, ""
}

// fanReq is one request's routing plan inside a batch.
type fanReq struct {
	idx    int  // inbound position (reply slot)
	shadow bool // flush_all fan-out: the router already answered, reply discarded
	req    []byte
}

// serveConn bridges one client connection: frame a pipelined inbound
// batch, fan it out per backend, reassemble replies in inbound order.
func (rt *Router) serveConn(nc net.Conn) {
	defer rt.wg.Done()
	defer func() {
		rt.connMu.Lock()
		delete(rt.conns, nc)
		rt.connMu.Unlock()
		if rt.mClients != nil {
			rt.mClients.Add(-1)
		}
		_ = nc.Close()
	}()
	r := bufio.NewReaderSize(nc, 64<<10)
	w := bufio.NewWriterSize(nc, 64<<10)
	var reqs [][]byte
	succ := make([]int, 0, rt.ring.Backends())
	for {
		// Frame the inbound batch: block for the first request, then keep
		// framing as long as bytes are already buffered — a client that
		// wrote a pipelined burst in one send gets its whole burst into
		// one fan-out round.
		reqs = reqs[:0]
		req, err := memcache.ReadRequest(r)
		if err != nil {
			return
		}
		reqs = append(reqs, req)
		for len(reqs) < rt.cfg.MaxInboundBatch && r.Buffered() > 0 {
			req, err := memcache.ReadRequest(r)
			if err != nil {
				return
			}
			reqs = append(reqs, req)
		}
		replies, quit := rt.routeBatch(reqs, succ)
		for _, rep := range replies {
			if len(rep) > 0 {
				if _, err := w.Write(rep); err != nil {
					return
				}
			}
		}
		if err := w.Flush(); err != nil {
			return
		}
		if quit {
			return
		}
	}
}

// routeBatch fans one inbound batch out per backend and returns the
// replies in inbound order. quit reports a client quit command (replies
// up to it are returned; requests after it are dropped, as a closing
// connection would).
func (rt *Router) routeBatch(reqs [][]byte, succ []int) (replies [][]byte, quit bool) {
	replies = make([][]byte, len(reqs))
	groups := make(map[int][]fanReq)
scan:
	for i, req := range reqs {
		kind, key := classify(req)
		switch kind {
		case kindQuit:
			// Everything ahead of the quit is still served — the truncated
			// batch falls through to the fan-out below; requests behind it
			// are dropped, as a closing connection would drop them.
			reqs = reqs[:i]
			replies = replies[:i]
			quit = true
			break scan
		case kindVersion:
			replies[i] = []byte("VERSION sdrad-router\r\n")
			continue
		case kindFlushAll:
			// Fan to every admitted backend; the router answers once.
			for b := 0; b < rt.ring.Backends(); b++ {
				if rt.health.Admitted(b) {
					groups[b] = append(groups[b], fanReq{idx: i, shadow: true, req: req})
				}
			}
			replies[i] = []byte("OK\r\n")
			continue
		case kindUnroutable:
			replies[i] = []byte("ERROR\r\n")
			continue
		}
		// The first admitted backend in ring order serves the key.
		succ = rt.ring.Successors(key, 0, succ)
		target := -1
		for _, b := range succ {
			if rt.health.Admitted(b) {
				target = b
				break
			}
		}
		if target < 0 {
			replies[i] = unavailableReply()
			continue
		}
		if target != succ[0] && rt.mSpills != nil {
			rt.mSpills.Add(1)
		}
		groups[target] = append(groups[target], fanReq{idx: i, req: req})
	}

	// Flush each backend's group concurrently, reassembling by inbound
	// index. Order within one backend's pipeline is preserved by the
	// backend (same connection), and across backends by the index.
	var wg sync.WaitGroup
	for b, group := range groups {
		wg.Add(1)
		go func(b int, group []fanReq) {
			defer wg.Done()
			rt.exchange(b, group, replies)
		}(b, group)
	}
	wg.Wait()
	return replies, quit
}

// unavailableReply is the router's degraded answer when no backend can
// serve a key: the client connection stays open and later requests keep
// flowing — a whole-cluster outage for one key range must not turn into
// a client-side connection storm.
func unavailableReply() []byte {
	return []byte("SERVER_ERROR cluster: no backend available\r\n")
}

// exchange sends one backend's group as a single pipelined batch and
// scatters the replies into the reply slots. Transport failures fill
// the group's slots with a degraded reply and strike the backend's
// ladder; a failed shadow request (flush_all's fan-out) strikes but keeps
// the reply the router already gave the client.
func (rt *Router) exchange(b int, group []fanReq, replies [][]byte) {
	p := rt.pools[b]
	var t0 time.Time
	if rt.mFanoutLat != nil {
		t0 = time.Now()
	}
	fail := func(cause string) {
		if rt.mErrors != nil {
			rt.mErrors.With(rt.ring.Name(b)).Add(1)
		}
		rt.health.ReportFailure(b, cause)
		for _, fr := range group {
			if !fr.shadow && replies[fr.idx] == nil {
				replies[fr.idx] = unavailableReply()
			}
		}
	}
	c, err := p.get()
	if err != nil {
		fail("dial: " + err.Error())
		return
	}
	batch := make([][]byte, len(group))
	for i, fr := range group {
		batch[i] = fr.req
	}
	out, err := c.DoBatch(batch)
	if err != nil {
		_ = c.Close()
		fail("exchange: " + err.Error())
		return
	}
	p.put(c)
	rt.health.ReportOK(b)
	if rt.mFanoutLat != nil {
		rt.mReqs.With(rt.ring.Name(b)).Add(int64(len(group)))
		rt.mFanoutLat.Observe(time.Since(t0).Nanoseconds())
	}
	for i, fr := range group {
		if !fr.shadow {
			replies[fr.idx] = out[i]
		}
	}
}
