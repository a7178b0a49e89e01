package main

import (
	"strings"
	"sync"
	"time"
)

// keepEvery is the request-span sampling: every request is counted, one
// in keepEvery is kept in memory.
const keepEvery = 64

// A span is one timed interval at a layer boundary, recorded from the
// benchmark's side of the call. Spans of one slice share its span as
// parent; times are nanoseconds since the tracer started.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs share the engine's code path.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string]int64 // spans seen by name, kept or not
	nextID uint64
	top    uint64 // the span new slices and probes hang under
	// deltas holds each workload's counter deltas over its traced slices.
	deltas map[string]counters
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]int64{}, deltas: map[string]counters{}}
}

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(name string, parent uint64) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.spans = append(t.spans, span{ID: t.nextID, Parent: parent, Name: name, StartNs: time.Since(t.t0).Nanoseconds()})
	t.counts[name]++
	return t.nextID
}

func (t *tracer) end(id uint64) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].ID == id {
			t.spans[i].EndNs = now
			return
		}
	}
}

// enter opens a span under the current top and makes it the top; the
// returned func closes it and restores the previous top.
func (t *tracer) enter(name string) (leave func()) {
	if t == nil {
		return func() {}
	}
	prev := t.top
	id := t.begin(name, prev)
	t.top = id
	return func() { t.end(id); t.top = prev }
}

func (t *tracer) root() uint64 {
	if t == nil {
		return 0
	}
	return t.top
}

// request builds the span of client c's n-th call of a slice. It touches
// no shared state: clients collect their kept spans and hand them over
// with keep once the slice is done.
func (t *tracer) request(slice uint64, c, n int, t0, t1 time.Time) span {
	return span{
		ID:      slice<<32 | uint64(c)<<28 | uint64(n),
		Parent:  slice,
		Name:    "request",
		StartNs: t0.Sub(t.t0).Nanoseconds(),
		EndNs:   t1.Sub(t.t0).Nanoseconds(),
	}
}

func (t *tracer) keep(kept []span, seen int64) {
	if t == nil || len(kept) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, kept...)
	t.counts["request"] += seen
}

// write stores the spans and counter deltas as one JSON document.
func (t *tracer) write(path string) error {
	doc := struct {
		Schema        string              `json:"schema"`
		KeepEvery     int                 `json:"request_spans_kept_one_in"`
		SpanCounts    map[string]int64    `json:"span_counts"`
		CounterDeltas map[string]counters `json:"counter_deltas"`
		Spans         []span              `json:"spans"`
	}{"sdrad-benchmark-trace/v1", keepEvery, t.counts, t.deltas, t.spans}
	return writeJSON(path, doc)
}

// measureTraced repeats the workload with a telemetry.Recorder attached
// through the public Config.Telemetry, paired against the same hardened
// server without one, and derives the workload's per-layer counts from
// the public counters differenced over the traced slices. The probe
// metrics are the same for every workload and are merged in.
func (e *engine) measureTraced(probes map[string]float64) (*result, error) {
	defer e.tracer.enter("workload." + e.w.Name)()
	ref := armSpec{name: "untraced", hardened: true, attack: e.w.attack}
	hard := armSpec{name: "traced", hardened: true, attack: e.w.attack, traced: true}
	ep, err := e.runEpochs(ref, hard, max(2, int(float64(e.rounds)*traceShare+0.5)))
	if err != nil {
		return nil, err
	}
	rs, last := ep.rounds, ep.last
	res := e.summarize(rs)
	e.tracer.deltas[e.w.Name] = res.deltas

	var ops, wall float64
	for _, r := range rs {
		ops += float64(r.Hard.Ops)
		wall += r.Hard.WallS
	}
	d := res.deltas
	perOp := func(key string) float64 { return float64(d[key]) / ops }
	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	m := res.Metrics
	for k, v := range probes {
		m[k] = v
	}
	m["core.switches_per_op"] = perOp("core.domain_switches")
	m["core.monitor_calls_per_op"] = perOp("core.monitor_calls")
	m["core.bytes_copied_per_op"] = perOp("core.bytes_copied")
	m["core.inits_per_op"] = perOp("core.inits")
	m["core.rewinds_per_s"] = float64(d["core.rewinds"]) / wall
	m["core.enter_p50_ns"] = float64(last["tel.sdrad_enter_latency_ns.p50"])
	m["core.exit_p50_ns"] = float64(last["tel.sdrad_exit_latency_ns.p50"])
	m["mem.reads_per_op"] = perOp("mem.reads")
	m["mem.writes_per_op"] = perOp("mem.writes")
	m["mem.bytes_read_per_op"] = perOp("mem.bytes_read")
	m["mem.bytes_written_per_op"] = perOp("mem.bytes_written")
	m["mem.pkru_writes_per_op"] = perOp("mem.pkru_writes")
	m["mem.lease_grants_per_op"] = perOp("tel.sdrad_lease_grants_total")
	m["mem.lease_renewals_per_op"] = perOp("tel.sdrad_lease_renewals_total")
	m["mem.lease_refusals_per_op"] = perOp("tel.sdrad_lease_refusals_total")
	m["mem.tlb_shootdowns_per_op"] = perOp("tel.sdrad_tlb_shootdowns_total")
	m["memcache.batch_size_mean"] = ratio(d["tel.sdrad_memcache_batch_size.sum"], d["tel.sdrad_memcache_batch_size.count"])
	m["memcache.shard_lock_wait_ns_per_op"] = perOp("storage.lock_wait_ns")
	m["storage.hit_rate"] = ratio(d["storage.hits"], d["storage.gets"])
	m["storage.evictions_per_op"] = perOp("storage.evictions")
	m["httpd.switches_per_req"], m["httpd.pool_resets_per_req"], m["httpd.pool_high_water_bytes"] = 0, 0, 0
	if e.w.httpd {
		m["httpd.switches_per_req"] = perOp("core.domain_switches")
		m["httpd.pool_resets_per_req"] = float64(d.sumPrefix("tel.sdrad_httpd_pool_resets_total.")) / ops
		for k, v := range last {
			if strings.HasPrefix(k, "tel.sdrad_httpd_pool_high_water_bytes.") {
				m["httpd.pool_high_water_bytes"] = max(m["httpd.pool_high_water_bytes"], float64(v))
			}
		}
	}
	m["client.lat_p99_us"] = medianOf(rs, func(r round) float64 { return r.Hard.LatP99Us })
	m["trace_overhead_pct"] = (1 - medianOf(rs, pairedRatio)) * 100
	return res, nil
}
