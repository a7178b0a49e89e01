package chaos

import (
	"bytes"
	"fmt"
	"math/rand"

	"sdrad/internal/httpd"
	"sdrad/internal/mem"
	"sdrad/internal/memcache"
	"sdrad/internal/proc"
	"sdrad/internal/telemetry"
)

// server is the harness every workload campaign drives: one hardened
// server — memcached, or an httpd worker — behind a reconnecting client
// connection, audited on its serving thread. newMemcache and newHTTPD
// fill in what differs between the two kinds; every step below is
// written once for both.
type server struct {
	*auditor
	rng     *rand.Rand
	conn    clientConn
	newConn func() clientConn
	inspect func(fn func(*proc.Thread) error) error
	crashed func() (bool, error)
	// storage is audited with the library (nil for httpd).
	storage *memcache.Storage
	// status compresses a reply into a schedule token; probe sends the
	// health probe and fails the campaign on a wrong answer.
	status func(resp []byte, closed bool) string
	probe  func(label string)
	// persisted is the value memcached's probe reads back (persist).
	persisted []byte
}

// clientConn is what both servers' client connections offer.
type clientConn interface {
	Do(req []byte) ([]byte, bool, error)
	DoPipeline(reqs [][]byte) []proc.Result
}

// newMemcache builds a one-worker hardened memcached from mc, seeded from
// cfg unless mc sets a seed, with the campaign's recorder attached. Its
// health probe reads back the persisted key.
func newMemcache(cfg Config, r *Report, mc memcache.Config) (*server, *memcache.Server, error) {
	mc.Variant, mc.Workers, mc.HashPower = memcache.VariantSDRaD, 1, 10
	if mc.Seed == 0 {
		mc.Seed = cfg.Seed
	}
	mc.Telemetry = cfg.recorder()
	s, err := memcache.NewServer(mc)
	if err != nil {
		return nil, nil, err
	}
	w := &server{
		auditor: newAuditor(r, s.Library(), mc.Telemetry),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		newConn: func() clientConn { return s.NewConn() },
		inspect: s.NewConn().Inspect,
		crashed: s.Crashed,
		storage: s.Storage(),
		status:  respClass,
	}
	w.probe = func(label string) {
		resp, closed := w.do(memcache.FormatGet("persist"))
		if val, _, ok := memcache.ParseGetValue(resp); closed || !ok || !bytes.Equal(val, w.persisted) {
			r.failf("%s: persisted key damaged: closed=%v resp=%q", label, closed, resp)
		}
	}
	w.conn = w.newConn()
	return w, s, nil
}

// newHTTPD builds a one-worker hardened httpd from hc, seeded from cfg,
// with the campaign's recorder attached. Its health probe is a GET of
// /index.html.
func newHTTPD(cfg Config, r *Report, hc httpd.Config) (*server, *httpd.Master, error) {
	hc.Variant, hc.Workers, hc.Seed = httpd.VariantSDRaD, 1, cfg.Seed
	hc.Telemetry = cfg.recorder()
	m, err := httpd.NewMaster(hc)
	if err != nil {
		return nil, nil, err
	}
	wk := m.Worker(0)
	w := &server{
		auditor: newAuditor(r, wk.Library(), hc.Telemetry),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		newConn: func() clientConn { return wk.NewConn() },
		inspect: wk.Inspect,
		crashed: wk.Crashed,
		status:  httpStatus,
	}
	w.probe = func(label string) {
		if status := httpStatus(w.do(httpd.FormatRequest("/index.html", true))); status != "200" {
			r.failf("%s: worker unhealthy: %s", label, status)
		}
	}
	w.conn = w.newConn()
	return w, m, nil
}

// do round-trips one request, reconnecting after a server-side close.
func (w *server) do(req []byte) ([]byte, bool) {
	resp, closed, err := w.conn.Do(req)
	if err != nil {
		w.r.failf("request failed: %v", err)
		return nil, true
	}
	if closed {
		w.conn = w.newConn()
	}
	return resp, closed
}

// persist stores the key memcached's probe reads back: it must survive
// every rewind.
func (w *server) persist(val []byte) error {
	if resp, _ := w.do(memcache.FormatSet("persist", val, 7)); !bytes.HasPrefix(resp, []byte("STORED")) {
		return fmt.Errorf("chaos: persist set failed: %q", resp)
	}
	w.persisted = val
	return nil
}

// onWorker runs fn on the serving thread, between requests.
func (w *server) onWorker(fn func(t *proc.Thread) error) {
	if err := w.inspect(fn); err != nil {
		w.r.failf("inspect failed: %v", err)
	}
}

// audit runs the library audit, and memcached's shard audit, on the
// serving thread.
func (w *server) audit(label string) {
	w.onWorker(func(t *proc.Thread) error {
		w.auditOn(t, label)
		if w.storage != nil {
			if err := w.storage.AuditShards(t.CPU()); err != nil {
				w.r.failf("%s: shard audit: %v", label, err)
			}
		}
		return nil
	})
}

// settle checks the post-rewind steady state: the audit, mapped bytes
// against the class's baseline, and the health probe — the server keeps
// serving.
func (w *server) settle(label, class string) {
	w.audit(label)
	w.checkMappedStable(class, label)
	w.probe(label)
}

// trap sends a request that must trap inside the server and close its
// connection, and returns the trap's forensics report.
func (w *server) trap(label string, req []byte, injected bool) telemetry.RewindReport {
	b := w.before()
	if resp, closed := w.do(req); !closed {
		w.r.failf("%s: trapped request left the connection open: %q", label, resp)
	}
	return w.trapped(label, b, injected)
}

// attack is a trap followed by the steady state of class.
func (w *server) attack(label, class string, req []byte) {
	w.trap(label, req, false)
	w.settle(label, class)
}

// injectPKU arms a gated one-shot PKU injector on the serving thread and
// sends req, which must trip it inside the server's nested domain; then
// the steady state of class. countdown must stay within the request's
// gated in-domain accesses to guarantee firing.
func (w *server) injectPKU(label, class string, countdown int, req []byte) {
	w.onWorker(func(t *proc.Thread) error {
		armGated(w.lib, t, countdown, mem.CodePkuErr)
		return nil
	})
	rep := w.trap(label, req, true)
	w.onWorker(func(t *proc.Thread) error {
		if t.CPU().FaultInjectorArmed() {
			t.CPU().SetFaultInjector(nil)
			w.r.failf("%s: injector did not fire within the request", label)
		}
		return nil
	})
	if rep.SiCode != int(mem.CodePkuErr) {
		w.r.failf("%s: forensics si_code %s, want SEGV_PKUERR", label, rep.SiCodeName)
	}
	w.settle(label, class)
}

// mutate sends a mangled copy of base; a rewind it provokes is followed
// by the steady state of class.
func (w *server) mutate(label, class string, base []byte) {
	req := mangle(w.rng, base)
	b := w.before()
	resp, closed := w.do(req)
	n := w.mutated(label, b)
	if n > 0 {
		w.settle(label, class)
	}
	w.r.event("%s len=%d %s rewinds=%d", label, len(req), w.status(resp, closed), n)
}

// final is the closing steady state: the audit, the health probe, and
// the campaign's last schedule line.
func (w *server) final() {
	w.audit("final")
	w.probe("final")
	w.r.event("final rewinds=%d", w.lib.Stats().Rewinds.Load())
}

// respClass compresses a memcached response into a deterministic
// schedule token: the first protocol token for open connections,
// "closed" for dropped ones.
func respClass(resp []byte, closed bool) string {
	if closed {
		return "closed"
	}
	if i := bytes.IndexAny(resp, " \r\n"); i > 0 {
		return string(resp[:i])
	}
	if len(resp) == 0 {
		return "empty"
	}
	return string(resp)
}

// httpStatus extracts the status code token from an httpd response for
// the schedule ("200", "400", "closed", ...).
func httpStatus(resp []byte, closed bool) string {
	if closed {
		return "closed"
	}
	line := resp
	if i := bytes.IndexByte(line, '\r'); i >= 0 {
		line = line[:i]
	}
	fields := bytes.Fields(line)
	if len(fields) >= 2 {
		return string(fields[1])
	}
	return "malformed"
}
