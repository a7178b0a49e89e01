package main

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"sdrad/internal/core"
	"sdrad/internal/httpd"
	"sdrad/internal/mem"
	"sdrad/internal/memcache"
	"sdrad/internal/proc"
	"sdrad/internal/telemetry"
)

// server is what the slice engine needs from a system under test. The
// memcache.Server and httpd.Master families sit behind it so one engine
// measures both.
type server interface {
	// dial opens client c's connection. Connections are placed by the
	// server's own accept path, redialled until client c sits on worker c:
	// with two clients, blind round-robin placement would otherwise leave
	// both on one worker after a reconnect, and a slice would measure
	// placement luck instead of the server.
	dial(c int) session
	// load brings the server to its measured state: the YCSB load phase
	// for memcache, a short warm-up for httpd. Every reply is checked.
	load(st *stream) error
	// snapshot reads the public counters. The per-CPU access counters are
	// plain fields, so it must only run while no request is in flight.
	snapshot() counters
	mappedBytes() int64
	// audit is the post-run half of the correctness gate.
	audit(st *stream) error
	stop()
}

// session is one client connection. call sends one burst and checks every
// reply; closed reports that the server closed the connection instead of
// answering, which only an attacked slice may see.
type session interface {
	call(burst [][]byte) (closed bool, err error)
}

// counters is a flat snapshot of a server's public counters, keyed
// "<layer>.<counter>"; recorder metrics are keyed "tel.<metric>[.<label>]".
type counters map[string]int64

// sub returns c minus base, counter by counter.
func (c counters) sub(base counters) counters {
	d := make(counters, len(c))
	for k, v := range c {
		d[k] = v - base[k]
	}
	return d
}

// add accumulates d into c.
func (c counters) add(d counters) {
	for k, v := range d {
		c[k] += v
	}
}

// sumPrefix totals every counter whose key starts with prefix (the
// per-label children of one recorder family).
func (c counters) sumPrefix(prefix string) int64 {
	var n int64
	for k, v := range c {
		if strings.HasPrefix(k, prefix) {
			n += v
		}
	}
	return n
}

func (c counters) addMem(s mem.Snapshot) {
	c["mem.reads"] += s.Reads
	c["mem.writes"] += s.Writes
	c["mem.bytes_read"] += s.BytesRead
	c["mem.bytes_written"] += s.BytesWritten
	c["mem.pkru_writes"] += s.PKRUWrites
	c["mem.faults"] += s.Faults
}

func (c counters) addCore(lib *core.Library) {
	if lib == nil {
		return
	}
	st := lib.Stats()
	c["core.domain_switches"] += st.DomainSwitches.Load()
	c["core.monitor_calls"] += st.MonitorCalls.Load()
	c["core.bytes_copied"] += st.BytesCopied.Load()
	c["core.inits"] += st.Inits.Load()
	c["core.destroys"] += st.Destroys.Load()
	c["core.rewinds"] += st.Rewinds.Load()
}

// addRecorder flattens the recorder's registry: plain metrics by name,
// labeled families and histogram summaries as name.child.
func (c counters) addRecorder(rec *telemetry.Recorder) {
	if rec == nil {
		return
	}
	for name, v := range rec.Registry().SnapshotJSON() {
		switch v := v.(type) {
		case int64:
			c["tel."+name] = v
		case map[string]int64:
			for child, n := range v {
				c["tel."+name+"."+child] = n
			}
		}
	}
}

// errViolation marks a failed correctness check; it wraps the detail.
var errViolation = errors.New("correctness violation")

func violation(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errViolation, fmt.Sprintf(format, args...))
}

// --- memcache ---------------------------------------------------------------

type mcServer struct {
	s       *memcache.Server
	rec     *telemetry.Recorder
	mayMiss bool
}

func newMemcache(w *workload, v memcache.Variant, rec *telemetry.Recorder) (server, error) {
	cfg := w.memcacheConfig(v)
	cfg.Telemetry = rec
	s, err := memcache.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	return &mcServer{s: s, rec: rec, mayMiss: !w.fit}, nil
}

// dialTries bounds the redials of one placement.
const dialTries = 4 * serverWorkers

func (m *mcServer) dial(c int) session {
	conn := m.s.NewConn()
	for try := 1; conn.WorkerIndex() != c && try < dialTries; try++ {
		conn = m.s.NewConn()
	}
	return &mcSession{c: conn, mayMiss: m.mayMiss}
}

// load is the YCSB load phase: every record is set once, pipelined at the
// server's batch limit over one connection per client.
func (m *mcServer) load(st *stream) error {
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(lo, hi int) {
			sess := m.dial(c)
			for i := lo; i < hi; {
				n := min(m.s.MaxBatch(), hi-i)
				closed, err := sess.call(st.reqs[st.records+i : st.records+i+n])
				if err == nil && closed {
					err = violation("load: connection closed at record %d", i)
				}
				if err != nil {
					errs <- err
					return
				}
				i += n
			}
			errs <- nil
		}(c*st.records/clients, (c+1)*st.records/clients)
	}
	var first error
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (m *mcServer) snapshot() counters {
	c := counters{}
	c.addMem(m.s.Process().AddressSpace().Stats().Snapshot())
	c.addCore(m.s.Library())
	ss := m.s.StorageStats()
	c["storage.gets"] = int64(ss.Gets)
	c["storage.hits"] = int64(ss.Hits)
	c["storage.sets"] = int64(ss.Sets)
	c["storage.evictions"] = int64(ss.Evictions)
	for _, sc := range m.s.Storage().ContentionStats() {
		c["storage.lock_wait_ns"] += sc.WaitNs
		c["storage.batch_ops"] += sc.BatchOps
	}
	c["server.rewinds"] = m.s.Rewinds()
	c.addRecorder(m.rec)
	return c
}

func (m *mcServer) mappedBytes() int64 { return m.s.MappedBytes() }

// audit runs the storage and monitor audits on every worker's own thread
// (library calls must run on the thread they concern). Each worker first
// serves one request: a thread's PKRU register only catches up with a
// policy a sibling's rewind narrowed at its next monitor transition, and
// the monitor audit reports the stale grant of a worker that sat idle
// since.
func (m *mcServer) audit(st *stream) error {
	if crashed, cause := m.s.Crashed(); crashed {
		return violation("server crashed: %v", cause)
	}
	lib := m.s.Library()
	for w := 0; w < serverWorkers; w++ {
		sess := m.dial(w).(*mcSession)
		if got := sess.c.WorkerIndex(); got != w {
			return violation("audit: no connection to worker %d (placed on %d)", w, got)
		}
		if closed, err := sess.call(st.reqs[:1]); err != nil || closed {
			return violation("audit: worker %d: closed=%v err=%v", w, closed, err)
		}
		err := sess.c.Inspect(func(t *proc.Thread) error {
			if w == 0 {
				if err := m.s.Storage().AuditShards(t.CPU()); err != nil {
					return err
				}
			}
			return auditLibrary(lib, t)
		})
		if err != nil {
			return violation("audit on worker %d: %v", w, err)
		}
	}
	return nil
}

func auditLibrary(lib *core.Library, t *proc.Thread) error {
	if lib == nil {
		return nil
	}
	if rep := lib.Audit(t); !rep.Ok() {
		return fmt.Errorf("monitor audit: %v", rep.Findings)
	}
	return nil
}

func (m *mcServer) stop() { m.s.Stop() }

// trap sends one attack request on a fresh connection, as an attacker
// would, and reports whether the server answered by closing it.
func (m *mcServer) trap(req []byte) (closed bool, err error) {
	_, closed, err = m.s.NewConn().Do(req)
	return closed, err
}

type mcSession struct {
	c       *memcache.Conn
	mayMiss bool
}

func (m *mcSession) call(burst [][]byte) (bool, error) {
	if len(burst) == 1 {
		resp, closed, err := m.c.Do(burst[0])
		return checkMemcache(burst[0], resp, closed, err, m.mayMiss)
	}
	anyClosed := false
	for j, r := range m.c.DoPipeline(burst) {
		closed, err := checkMemcache(burst[j], r.Resp, r.Closed, r.Err, m.mayMiss)
		if err != nil {
			return false, err
		}
		anyClosed = anyClosed || closed
	}
	return anyClosed, nil
}

var (
	replyStored = []byte("STORED\r\n")
	replyMiss   = []byte("END\r\n")
)

// checkMemcache is the per-reply correctness gate: a set must be STORED, a
// get must return its record's value byte for byte, and only a workload
// whose keyspace overflows the cache may miss.
func checkMemcache(req, resp []byte, closed bool, err error, mayMiss bool) (bool, error) {
	if err != nil && !errors.Is(err, memcache.ErrConnClosed) {
		return false, violation("%q: %v", reqLine(req), err)
	}
	if closed {
		return true, nil
	}
	switch {
	case req[0] == 's':
		if !bytes.Equal(resp, replyStored) {
			return false, violation("%q: reply %q, want STORED", reqLine(req), head(resp))
		}
	case mayMiss && bytes.Equal(resp, replyMiss):
	case !getHitOK(req, resp):
		return false, violation("%q: reply %q is not the record's value", reqLine(req), head(resp))
	}
	return false, nil
}

// getHitOK reports whether resp is exactly the hit reply for the get in
// req: "VALUE <key> 0 1024", the value ycsb.Value gives the record, END.
// The value is the ten bytes "v%08d-" of the record index repeated; the
// index is the tail of the key, so the check needs no table, and the
// repeat is verified by comparing the value with itself shifted by one
// period — one memequal over bytes the server has just written.
func getHitOK(req, resp []byte) bool {
	const (
		pre    = "VALUE "
		mid    = " 0 1024\r\n"
		tail   = "\r\nEND\r\n"
		period = 10
	)
	key := req[len("get ") : len(req)-len("\r\n")]
	if len(resp) != len(pre)+len(key)+len(mid)+valueSize+len(tail) {
		return false
	}
	p := resp
	if string(p[:len(pre)]) != pre || !bytes.Equal(p[len(pre):len(pre)+len(key)], key) {
		return false
	}
	p = p[len(pre)+len(key):]
	if string(p[:len(mid)]) != mid || string(p[len(mid)+valueSize:]) != tail {
		return false
	}
	v := p[len(mid) : len(mid)+valueSize]
	return v[0] == 'v' && bytes.Equal(v[1:period-1], key[len(key)-(period-2):]) && v[period-1] == '-' &&
		bytes.Equal(v[period:], v[:valueSize-period])
}

func reqLine(req []byte) []byte {
	if i := bytes.IndexByte(req, '\r'); i >= 0 {
		return req[:i]
	}
	return req
}

func head(b []byte) []byte { return b[:min(len(b), 48)] }

// --- httpd ------------------------------------------------------------------

type httpServer struct {
	m   *httpd.Master
	rec *telemetry.Recorder
}

func newHTTPD(v httpd.Variant, rec *telemetry.Recorder) (server, error) {
	m, err := httpd.NewMaster(httpd.Config{
		Variant:   v,
		Workers:   serverWorkers,
		Files:     map[string]int{httpPath: valueSize},
		Telemetry: rec,
	})
	if err != nil {
		return nil, err
	}
	return &httpServer{m: m, rec: rec}, nil
}

func (h *httpServer) dial(c int) session {
	w := h.m.PlaceWorker()
	for try := 1; w != c && try < dialTries; try++ {
		w = h.m.PlaceWorker()
	}
	return &httpSession{c: h.m.Worker(w).NewConn()}
}

// httpWarmup is the requests each client sends before the first slice, so
// parser-domain creation and buffer allocation are set-up, not slice 0.
const httpWarmup = 2000

func (h *httpServer) load(st *stream) error {
	for c := 0; c < clients; c++ {
		sess := h.dial(c)
		for i := 0; i < httpWarmup; i++ {
			closed, err := sess.call(st.reqs[:1])
			if err == nil && closed {
				err = violation("warm-up: connection closed")
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func (h *httpServer) snapshot() counters {
	c := counters{}
	for i := 0; i < h.m.Workers(); i++ {
		w := h.m.Worker(i)
		c.addMem(w.Process().AddressSpace().Stats().Snapshot())
		c.addCore(w.Library())
		c["server.rewinds"] += w.Rewinds()
	}
	c.addRecorder(h.rec)
	return c
}

func (h *httpServer) mappedBytes() int64 {
	var n int64
	for i := 0; i < h.m.Workers(); i++ {
		n += h.m.Worker(i).MappedBytes()
	}
	return n
}

func (h *httpServer) audit(*stream) error {
	for i := 0; i < h.m.Workers(); i++ {
		w := h.m.Worker(i)
		if crashed, cause := w.Crashed(); crashed {
			return violation("worker %d crashed: %v", i, cause)
		}
		if err := w.Inspect(func(t *proc.Thread) error { return auditLibrary(w.Library(), t) }); err != nil {
			return violation("audit on worker %d: %v", i, err)
		}
	}
	return nil
}

func (h *httpServer) stop() { h.m.Stop() }

type httpSession struct{ c *httpd.Conn }

func (h *httpSession) call(burst [][]byte) (bool, error) {
	resp, closed, err := h.c.Do(burst[0])
	if err != nil {
		return false, violation("GET %s: %v", httpPath, err)
	}
	if closed {
		return true, nil
	}
	if !httpReplyOK(resp) {
		return false, violation("GET %s: reply %q is not 200 with the %d-byte file", httpPath, head(resp), valueSize)
	}
	return false, nil
}

// httpBody is the file httpd synthesizes for httpPath: the path and a '#',
// repeated.
var httpBody = func() []byte {
	pat := httpPath + "#"
	b := make([]byte, valueSize)
	for i := range b {
		b[i] = pat[i%len(pat)]
	}
	return b
}()

var (
	httpOK     = []byte("HTTP/1.1 200 ")
	httpLength = []byte("\r\nContent-Length: " + strconv.Itoa(valueSize) + "\r\n")
	httpHdrEnd = []byte("\r\n\r\n")
)

func httpReplyOK(resp []byte) bool {
	end := bytes.Index(resp, httpHdrEnd)
	return end >= 0 && bytes.HasPrefix(resp, httpOK) &&
		bytes.Contains(resp[:end+2], httpLength) &&
		bytes.Equal(resp[end+len(httpHdrEnd):], httpBody)
}
