package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"

	"sdrad/internal/core"
	"sdrad/internal/cryptolib"
	"sdrad/internal/httpd"
	"sdrad/internal/mem"
	"sdrad/internal/memcache"
	"sdrad/internal/proc"
	"sdrad/internal/sig"
	"sdrad/internal/telemetry"
)

// A sweep checks the paper's promise at every fault point of a fixed mix
// of client events (DESIGN §8, "Fault-point sweeps"): a trap discards
// exactly the failing event, and the server answers everyone else as the
// vanilla build answers the mix without that event. For every event j and
// k = 1, 2, ..., the hardened build runs the mix with a fault armed at the
// k-th in-domain checked access of event j (armGated) or at its k-th
// domain allocation (Library.SetAllocFault), until the fault no longer
// fires inside event j. armGated counts only accesses made while a nested
// domain is current, so a fault in the root domain — the step-⑨ apply,
// the monitor's bookkeeping around Enter and Exit — is not swept.

// errInjectedOOM is what an armed allocation fault returns.
var errInjectedOOM = errors.New("chaos: injected allocation failure")

// mixReq is one request of a sweep mix: tmpl with "{p}" replaced by the
// point's prefix, the spec's vars by their values, and "{cas}" by the CAS
// unique of the last gets reply the hardened build gave in the point.
type mixReq struct {
	tmpl string
	// attack is the signal the request's trap raises on the hardened
	// build (0 for none). The vanilla build dies on it, so it is never
	// sent there.
	attack sig.Signal
}

// sweepSpec is one server's sweep.
type sweepSpec struct {
	mix [][]mixReq // each event is one DoPipeline call
	// finals read every key or path of the mix on both builds, as one
	// event (memcache's then delete the point's keys, so the store stays
	// as small at the last point as at the first).
	finals []string
	// vars returns more old/new template pairs for prefix p (or is nil).
	vars func(hard *server, p string) []string
	// oomReply is the reply a request may give when its domain
	// allocation fails, instead of an error.
	oomReply string
	// start builds the audited hardened server and the vanilla one.
	start func(r *Report) (hard, van *server, stop func(), err error)
}

// faultClass is what a sweep point arms on the hardened serving thread.
type faultClass string

const (
	accessFault faultClass = "access" // armGated at the k-th in-domain checked access
	allocFault  faultClass = "alloc"  // SetAllocFault at the k-th domain allocation
)

var memcacheSweep = sweepSpec{
	mix: [][]mixReq{
		{{tmpl: "set {p}a 1 0 5\r\nalpha\r\n"}},
		{{tmpl: "set {q} 5 0 5\r\nquiet\r\n"}},  // a's shard mate, now the head of its LRU
		{{tmpl: "set {p}a 2 0 5\r\nbravo\r\n"}}, // a store of a resident key
		{{tmpl: "get {p}a\r\n"}},                // a hit behind the LRU head
		{{tmpl: "set {p}n 0 0 2\r\n10\r\n"}, {tmpl: "incr {p}n 5\r\n"}, {tmpl: "append {p}a 0 0 5\r\n-tail\r\n"}, {tmpl: "gets {p}a\r\n"}},
		{{tmpl: "cas {p}a 3 0 5 {cas}\r\nomega\r\n"}},
		{{tmpl: "set {p}c 4 0 5\r\ngamma\r\n"}, {tmpl: "get {p}c\r\n"},
			{tmpl: string(memcache.FormatBSet("{p}x", 1<<20, nil)), attack: sig.SIGSEGV}, {tmpl: "get {p}a\r\n"}},
		{{tmpl: "delete {p}n\r\n"}},
		{{tmpl: "get {p}n\r\n"}, {tmpl: "incr {p}n 1\r\n"}, {tmpl: "gets {p}a\r\n"}, {tmpl: "delete {p}c\r\n"}},
	},
	finals: []string{"get {p}a\r\n", "get {q}\r\n", "get {p}n\r\n", "get {p}c\r\n", "get {p}x\r\n",
		"delete {p}a\r\n", "delete {q}\r\n", "delete {p}n\r\n", "delete {p}c\r\n"},
	vars:     shardMate,
	oomReply: "SERVER_ERROR out of memory",
	start:    startMemcachePair,
}

var httpdSweep = sweepSpec{
	mix: [][]mixReq{
		{{tmpl: httpGET("/index.html", "keep-alive", nil)}},
		{{tmpl: httpGET("/{p}.html", "keep-alive", nil)}}, // a 404
		{{tmpl: "HEAD" + strings.TrimPrefix(httpGET("/index.html", "keep-alive", nil), "GET")}},
		{{tmpl: httpGET("/index.html", "keep-alive", nil)}, {tmpl: httpGET("/about.html", "keep-alive", nil)}},
		{{tmpl: httpGET("/about.html", "close", nil)}},
		{{tmpl: httpGET("/"+strings.Repeat("../", 200)+"x", "keep-alive", nil), attack: sig.SIGSEGV}},
		{{tmpl: httpGET("/index.html", "keep-alive", cryptolib.FormatCertificate("alice", "alice@example.com"))}},
		{{tmpl: httpGET("/index.html", "keep-alive", cryptolib.MaliciousCertificate()), attack: sig.SIGABRT}},
	},
	finals: []string{httpGET("/index.html", "keep-alive", nil), httpGET("/about.html", "keep-alive", nil),
		httpGET("/{p}.html", "keep-alive", nil)},
	start: startHTTPDPair,
}

// httpGET renders a GET of path with the point's prefix as its host,
// carrying cert in the X-Client-Cert header when there is one.
func httpGET(path, connection string, cert []byte) string {
	req := "GET " + path + " HTTP/1.1\r\nHost: {p}\r\n"
	if cert != nil {
		req += "X-Client-Cert: " + httpd.EncodeCertHeader(cert) + "\r\n"
	}
	return req + "Connection: " + connection + "\r\n\r\n"
}

// shardMate names "{q}", the first key "qNN"+p that ShardFor puts on the
// shard of p+"a".
// Every item of the mix fits the smallest slab class, so once {q} is
// stored after {p}a, a hit on {p}a is one behind the head of its LRU.
func shardMate(hard *server, p string) []string {
	shard := hard.storage.ShardFor([]byte(p + "a"))
	for i := 0; ; i++ {
		if q := fmt.Sprintf("q%02d%s", i, p); hard.storage.ShardFor([]byte(q)) == shard {
			return []string{"{q}", q}
		}
	}
}

// sweepSeed seeds both builds of every sweep. A sweep draws nothing at
// random, so its schedule is the same at every seed.
const sweepSeed = 12648430

// startMemcachePair builds the two memcached builds, each with a 4 MiB
// cache: the mix holds a handful of items, and every rewind makes the next
// request re-verify the lease over the whole storage arena.
func startMemcachePair(r *Report) (hard, van *server, stop func(), err error) {
	var ss []*memcache.Server
	stop = func() {
		for _, s := range ss {
			s.Stop()
		}
	}
	var pair [2]*server
	for i, v := range []memcache.Variant{memcache.VariantSDRaD, memcache.VariantVanilla} {
		mc := memcache.Config{Variant: v, Workers: 1, HashPower: 10, CacheBytes: 4 << 20, Seed: sweepSeed}
		if v == memcache.VariantSDRaD {
			mc.Telemetry = telemetry.New(telemetry.Options{})
		}
		s, err := memcache.NewServer(mc)
		if err != nil {
			stop()
			return nil, nil, nil, err
		}
		ss = append(ss, s)
		w := &server{newConn: func() clientConn { return s.NewConn() }, crashed: s.Crashed}
		if lib := s.Library(); lib != nil {
			w.auditor = newAuditor(r, lib, mc.Telemetry)
			w.inspect, w.storage = s.NewConn().Inspect, s.Storage()
		}
		w.conn = w.newConn()
		pair[i] = w
	}
	return pair[0], pair[1], stop, nil
}

// startHTTPDPair builds the two httpd builds, client certificates checked
// on both.
func startHTTPDPair(r *Report) (hard, van *server, stop func(), err error) {
	var ms []*httpd.Master
	stop = func() {
		for _, m := range ms {
			m.Stop()
		}
	}
	var pair [2]*server
	for i, v := range []httpd.Variant{httpd.VariantSDRaD, httpd.VariantVanilla} {
		hc := httpd.Config{Variant: v, Workers: 1, Seed: sweepSeed, VerifyClientCerts: true,
			Files: map[string]int{"/index.html": 512, "/about.html": 256}}
		if v == httpd.VariantSDRaD {
			hc.Telemetry = telemetry.New(telemetry.Options{})
		}
		m, err := httpd.NewMaster(hc)
		if err != nil {
			stop()
			return nil, nil, nil, err
		}
		ms = append(ms, m)
		wk := m.Worker(0)
		w := &server{newConn: func() clientConn { return wk.NewConn() }, inspect: wk.Inspect, crashed: wk.Crashed}
		if lib := wk.Library(); lib != nil {
			w.auditor = newAuditor(r, lib, hc.Telemetry)
		}
		w.conn = w.newConn()
		pair[i] = w
	}
	return pair[0], pair[1], stop, nil
}

// run judges every point of both fault classes, event by event, and
// returns the sweep's report. An error means a build died or a server
// could not be built; the report then holds the points judged so far.
func (spec *sweepSpec) run() (*Report, error) {
	r := &Report{}
	hard, van, stop, err := spec.start(r)
	if err != nil {
		return r, err
	}
	defer stop()
	sw := &sweep{sweepSpec: spec, r: r, hard: hard, van: van}
	for _, cls := range []faultClass{accessFault, allocFault} {
		for j := range spec.mix {
			for k, fired := 1, true; fired; k++ {
				if fired, err = sw.point(j, k, cls); err != nil {
					return r, err
				}
			}
		}
	}
	return r, nil
}

type sweep struct {
	*sweepSpec
	r         *Report
	hard, van *server
}

// point runs the mix once with fault point (j, k) of class cls armed on
// the hardened build, then the mix minus its discarded set on the vanilla
// build, then the final reads on both, and judges it. It reports whether
// the fault fired inside event j.
func (sw *sweep) point(j, k int, cls faultClass) (fired bool, err error) {
	h, r := sw.hard, sw.r
	words := []string{"{p}", fmt.Sprintf("p%04d", r.Points)}
	if sw.vars != nil {
		words = append(words, sw.vars(h, words[1])...)
	}
	rp := strings.NewReplacer(words...)
	r.Points++
	label := fmt.Sprintf("%s ev=%d k=%d", cls, j, k)
	sent := make([][][]byte, len(sw.mix))
	got := make([][]proc.Result, len(sw.mix))
	drop := make([][]bool, len(sw.mix))
	var replies [][]byte
	outcome := "past"
	for e, ev := range sw.mix {
		cas := casOf(replies)
		for _, q := range ev {
			sent[e] = append(sent[e], []byte(strings.ReplaceAll(rp.Replace(q.tmpl), "{cas}", cas)))
		}
		elabel := fmt.Sprintf("%s: event %d", label, e)
		b := h.before()
		var disarm func(label string) bool
		if e == j {
			disarm = sw.arm(cls, k)
		}
		res, ok := h.pipeline(sent[e])
		if !ok {
			r.failf("%s: the hardened build served a request on the connection the event closed", elabel)
		}
		if crashed, cause := h.crashed(); crashed {
			return false, fmt.Errorf("chaos: hardened server died at %s: %v", elabel, cause)
		}
		hit := disarm != nil && disarm(elabel)
		fired = fired || hit
		got[e], drop[e] = res, make([]bool, len(ev))

		atk := slices.IndexFunc(ev, func(q mixReq) bool { return q.attack != 0 })
		defused := atk >= 0 && hit && cls == allocFault && sw.failure(res[atk]) != ""
		switch {
		case hit && cls == accessFault:
			if rep := h.trapped(elabel, b, true); rep.SiCode != int(mem.CodePkuErr) {
				r.failf("%s: forensics si_code %s, want SEGV_PKUERR", elabel, rep.SiCodeName)
			}
			sw.discarded(elabel, res, drop[e])
			outcome = "trap"
		case atk >= 0 && !defused:
			if ev[atk].attack == sig.SIGABRT {
				h.aborted(elabel, b)
			} else {
				h.trapped(elabel, b, false)
			}
			sw.discarded(elabel, res, drop[e])
		default:
			h.calm(elabel, b)
			if e == j {
				outcome = sw.failed(elabel, cls, hit, res, drop[e])
			}
		}
		for i := range res {
			replies = append(replies, res[i].Resp)
		}
	}

	// Then the hardened build reads every key or path of the mix, as one
	// more event nothing is dropped from.
	finals := make([][]byte, len(sw.finals))
	for i, f := range sw.finals {
		finals[i] = []byte(rp.Replace(f))
	}
	b := h.before()
	res, _ := h.pipeline(finals)
	h.calm(label+": final reads", b)
	h.audit(label)
	h.checkMappedStable(label)
	sent, got, drop = append(sent, finals), append(got, res), append(drop, make([]bool, len(finals)))

	// The vanilla build answers the mix without the discarded set, and
	// the final reads, in as few events as its connection allows.
	var reqs [][]byte
	var at [][2]int
	dropped := 0
	for e := range sent {
		for i, d := range drop[e] {
			if d {
				dropped++
				continue
			}
			reqs, at = append(reqs, sent[e][i]), append(at, [2]int{e, i})
		}
	}
	res, ok := sw.van.send(reqs)
	if crashed, cause := sw.van.crashed(); crashed || !ok {
		return false, fmt.Errorf("chaos: vanilla server at %s: died %v (%v), served on a closed connection %v", label, crashed, cause, !ok)
	}
	for n, ei := range at {
		if h, v := got[ei[0]][ei[1]], res[n]; !bytes.Equal(h.Resp, v.Resp) || h.Closed != v.Closed || !errors.Is(h.Err, v.Err) {
			r.failf("%s: event %d request %d (event %d is the final reads): hardened %q closed=%v err=%v, vanilla %q closed=%v err=%v",
				label, ei[0], ei[1], len(sw.mix), h.Resp, h.Closed, h.Err, v.Resp, v.Closed, v.Err)
		}
	}
	r.event("%s %s dropped=%d", label, outcome, dropped)
	return fired, nil
}

// arm installs point k of class cls on the hardened serving thread. The
// function it returns runs after the event: it removes what is left of
// the fault, audits the serving thread and reports whether it fired.
func (sw *sweep) arm(cls faultClass, k int) (disarm func(label string) bool) {
	lib := sw.hard.lib
	fired := false
	sw.hard.onWorker(func(t *proc.Thread) error {
		if cls == accessFault {
			armGated(lib, t, k, mem.CodePkuErr)
			return nil
		}
		n := 0
		lib.SetAllocFault(func(udi core.UDI, _ uint64) error {
			if udi == core.RootUDI {
				return nil // connection buffers are not the target
			}
			if n++; n != k {
				return nil
			}
			fired = true
			return errInjectedOOM
		})
		return nil
	})
	return func(label string) bool {
		sw.hard.onWorker(func(t *proc.Thread) error {
			if cls == allocFault {
				lib.SetAllocFault(nil)
			} else if c := t.CPU(); c.FaultInjectorArmed() {
				c.SetFaultInjector(nil)
			} else {
				fired = true
			}
			sw.hard.auditServing(t, label)
			return nil
		})
		return fired
	}
}

// discarded checks that every request of a rewound event reads Closed,
// and puts them all in the discarded set.
func (sw *sweep) discarded(label string, res []proc.Result, drop []bool) {
	for i, pr := range res {
		drop[i] = true
		if !pr.Closed || pr.Err != nil || len(pr.Resp) > 0 {
			sw.r.failf("%s: request %d of a rewound event read %q closed=%v err=%v, want Closed", label, i, pr.Resp, pr.Closed, pr.Err)
		}
	}
}

// failed judges the failures of event j when it did not rewind, puts
// the requests that failed in the discarded set, and returns the point's
// outcome. A fired allocation fault must fail at least one request, each
// with heap exhaustion or the out-of-memory reply; an access fault that
// never fired may fail the event closed, every request with one error.
func (sw *sweep) failed(label string, cls faultClass, hit bool, res []proc.Result, drop []bool) string {
	var why []string
	for i, pr := range res {
		if w := sw.failure(pr); w != "" {
			drop[i], why = true, append(why, w)
			if cls == allocFault && !errors.Is(pr.Err, core.ErrHeapExhausted) && w != sw.oomReply {
				sw.r.failf("%s: request %d failed with %s, want heap exhaustion", label, i, w)
			}
		}
	}
	switch {
	case cls == allocFault && hit:
		if len(why) == 0 {
			sw.r.failf("%s: the allocation fault failed no request", label)
		}
		return "oom"
	case len(why) == 0:
		return "past"
	case cls == allocFault || len(why) != len(res) || slices.ContainsFunc(why, func(w string) bool { return w != why[0] }):
		sw.r.failf("%s: requests failed with %v and nothing fired: only a whole event fails closed", label, why)
	}
	return "failed-closed"
}

// failure names the failure pr reports: its error, the out-of-memory
// reply, or "" when it did not fail.
func (sw *sweep) failure(pr proc.Result) string {
	if pr.Err != nil {
		return pr.Err.Error()
	}
	if sw.oomReply != "" && bytes.HasPrefix(pr.Resp, []byte(sw.oomReply)) {
		return sw.oomReply
	}
	return ""
}

// casOf returns the CAS unique of the last gets reply in replies, or "0"
// when there is none.
func casOf(replies [][]byte) string {
	for i := len(replies) - 1; i >= 0; i-- {
		line, _, _ := bytes.Cut(replies[i], []byte("\r\n"))
		if f := bytes.Fields(line); len(f) == 5 && string(f[0]) == "VALUE" {
			return string(f[4])
		}
	}
	return "0"
}

// armGated installs a one-shot injector that lets countdown-1 accesses
// pass and turns the next one into a fault with the given code, charged
// to the root key.
// The thread alternates between root and nested domains, so it only
// counts accesses made while executing inside a nested domain, and never
// fires on the monitor's own ledger page. Firing in the root domain would
// be an unrecoverable fault (process death) rather than a rewind, and a
// fault on the ledger write would desynchronize the very counters the
// audit checks — neither is the scenario under test.
func armGated(lib *core.Library, t *proc.Thread, countdown int, code mem.FaultCode) {
	c := t.CPU()
	monitorPage := lib.MonitorBase() &^ (mem.PageSize - 1)
	n := 0
	c.SetFaultInjector(func(addr mem.Addr, kind mem.AccessKind) *mem.Fault {
		if lib.Current(t) == core.RootUDI {
			return nil
		}
		if addr&^(mem.PageSize-1) == monitorPage {
			return nil
		}
		n++
		if n < countdown {
			return nil
		}
		return &mem.Fault{Kind: kind, Code: code, PKey: lib.RootKey()}
	})
}
