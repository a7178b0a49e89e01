package chaos

import (
	"bytes"
	"slices"

	"sdrad/internal/memcache"
	"sdrad/internal/proc"
)

// server is the harness a sweep drives: one server — memcached, or an
// httpd worker — behind a reconnecting client connection. A hardened
// server is audited on its serving thread; the vanilla server a sweep
// judges against has no auditor.
type server struct {
	*auditor
	conn    clientConn
	newConn func() clientConn
	inspect func(fn func(*proc.Thread) error) error
	crashed func() (bool, error)
	// storage is audited with the library (nil for httpd).
	storage *memcache.Storage
}

// clientConn is what both servers' client connections offer.
type clientConn interface {
	Do(req []byte) ([]byte, bool, error)
	DoPipeline(reqs [][]byte) []proc.Result
}

// pipeline sends reqs as one event and returns a copy of its results (a
// connection's results last only until its next call). After a
// server-side close it sends the event's first request once more on the
// closed connection, which must not serve it (ok is false when it does),
// and opens a new connection.
func (w *server) pipeline(reqs [][]byte) (res []proc.Result, ok bool) {
	res = slices.Clone(w.conn.DoPipeline(reqs))
	closed := false
	for i := range res {
		res[i].Resp = bytes.Clone(res[i].Resp)
		closed = closed || res[i].Closed
	}
	if !closed {
		return res, true
	}
	again := w.conn.DoPipeline(reqs[:1])[0]
	w.conn = w.newConn()
	return res, again.Closed && again.Err != nil && len(again.Resp) == 0
}

// send sends reqs in as few events as the connection allows: after a
// server-side close, the rest go out on a new connection. ok is false
// when a closed connection served a request.
func (w *server) send(reqs [][]byte) (res []proc.Result, ok bool) {
	ok = true
	for len(reqs) > 0 {
		part, stayed := w.pipeline(reqs)
		n := slices.IndexFunc(part, func(r proc.Result) bool { return r.Closed }) + 1
		if n == 0 {
			n = len(part)
		}
		res, reqs, ok = append(res, part[:n]...), reqs[n:], ok && stayed
	}
	return res, ok
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
		w.auditServing(t, label)
		return nil
	})
}

// auditServing is audit's body, run on the serving thread t.
func (w *server) auditServing(t *proc.Thread, label string) {
	w.auditOn(t, label)
	if w.storage != nil {
		if err := w.storage.AuditShards(t.CPU()); err != nil {
			w.r.failf("%s: shard audit: %v", label, err)
		}
	}
}
