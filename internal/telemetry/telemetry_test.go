package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"math/bits"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"sdrad/internal/cacheline"
)

// --- flight recorder ---

func TestFlightFieldRoundTrip(t *testing.T) {
	f := newFlightRecorder(8)
	f.record(12345, EvFault, 42, -1, 4, 7, 0xdeadbeef, 1)
	evs := f.Snapshot()
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Seq != 1 || ev.TimeNs != 12345 || ev.Kind != "fault" ||
		ev.Thread != 42 || ev.UDI != -1 || ev.Code != 4 || ev.PKey != 7 ||
		ev.Addr != 0xdeadbeef || ev.Aux != 1 {
		t.Fatalf("field round-trip mismatch: %+v", ev)
	}
	if f.Written() != 1 {
		t.Fatalf("Written() = %d, want 1", f.Written())
	}
}

func TestFlightKindStrings(t *testing.T) {
	want := map[EventKind]string{
		EvInit: "init", EvEnter: "enter", EvExit: "exit", EvFault: "fault",
		EvRewind: "rewind", EvDiscard: "discard", EvHeapMerge: "heap-merge",
		EvSignal: "signal", EvCrash: "crash", EvThreadStart: "thread-start",
		EvThreadExit: "thread-exit", EventKind(99): "unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("EventKind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
}

func TestFlightWrapKeepsNewest(t *testing.T) {
	// Minimum shard capacity is 64 slots; one tid pins one shard, so the
	// ring must retain exactly the 64 newest events after 3 laps.
	f := newFlightRecorder(1)
	const n = 3 * 64
	for i := 0; i < n; i++ {
		f.record(int64(i), EvEnter, 0, i, 0, 0, uint64(i), uint64(i))
	}
	if f.Written() != n {
		t.Fatalf("Written() = %d, want %d", f.Written(), n)
	}
	evs := f.Snapshot()
	if len(evs) != 64 {
		t.Fatalf("snapshot holds %d events, want 64", len(evs))
	}
	for i, ev := range evs {
		want := uint64(n - 64 + i + 1)
		if ev.Seq != want {
			t.Fatalf("event %d has seq %d, want %d (oldest must be dropped, order by seq)", i, ev.Seq, want)
		}
		// payload written alongside seq must stay paired with it
		if uint64(ev.UDI) != ev.Seq-1 || ev.Addr != ev.Seq-1 || ev.Aux != ev.Seq-1 {
			t.Fatalf("event %d: payload torn from seq: %+v", i, ev)
		}
	}
}

func TestFlightShardedCapacity(t *testing.T) {
	f := newFlightRecorder(4096)
	if f.Capacity() != 4096 {
		t.Fatalf("Capacity() = %d, want 4096", f.Capacity())
	}
	// Spread writers over every shard: all events retained up to capacity.
	for i := 0; i < 1024; i++ {
		f.record(int64(i), EvExit, i, 0, 0, 0, 0, 0)
	}
	evs := f.Snapshot()
	if len(evs) != 1024 {
		t.Fatalf("snapshot holds %d events, want all 1024", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("snapshot not strictly ordered by seq at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
}

// Threads of different shards record at once, so no two shard cursors
// share a cache line.
func TestFlightShardCursorsShareNoLine(t *testing.T) {
	f := newFlightRecorder(4096)
	for i := range f.shards {
		a := cacheline.Of(uintptr(unsafe.Pointer(&f.shards[i].pos)), 8)
		for j := i + 1; j < flightShards; j++ {
			if b := cacheline.Of(uintptr(unsafe.Pointer(&f.shards[j].pos)), 8); a.Shares(b) {
				t.Errorf("shards %d and %d keep their cursors on one line", i, j)
			}
		}
	}
}

// Threads of different shards observe transition latencies at once, so no
// two cells of the enter and exit histograms share a cache line.
func TestLatencyHistogramCellsShareNoLine(t *testing.T) {
	r := New(Options{})
	var spans []cacheline.Span
	for _, h := range []*Histogram{r.mEnterLat, r.mExitLat} {
		if len(h.cells) != flightShards {
			t.Fatalf("a latency histogram has %d cells, want one per flight shard (%d)", len(h.cells), flightShards)
		}
		for i := range h.cells {
			spans = append(spans, cacheline.Fields(&h.cells[i]))
		}
	}
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			if spans[i].Shares(spans[j]) {
				t.Errorf("cells %d and %d of the latency histograms share a line", i, j)
			}
		}
	}
}

// --- histogram ---

func TestShardedHistogramSumsItsCells(t *testing.T) {
	// The same observations spread over a sharded histogram's cells read
	// as one plain histogram's: count, sum, quantiles and exposition.
	reg := NewRegistry()
	sharded := reg.ShardedHistogram("lat_ns", "spread", flightShards)
	var plain Histogram
	for i := 0; i < 1000; i++ {
		v := int64(i * i % 7919)
		sharded.ObserveShard(i, v)
		plain.Observe(v)
	}
	if sharded.Count() != plain.Count() || sharded.Sum() != plain.Sum() {
		t.Errorf("sharded count %d sum %d, plain %d and %d", sharded.Count(), sharded.Sum(), plain.Count(), plain.Sum())
	}
	for _, q := range []float64{0.1, 0.5, 0.99, 1} {
		if a, b := sharded.Quantile(q), plain.Quantile(q); a != b {
			t.Errorf("Quantile(%v): sharded %d, plain %d", q, a, b)
		}
	}
	for i := range sharded.cells {
		if n := sharded.cells[i].count.Load(); n != 1000/flightShards {
			t.Errorf("cell %d holds %d observations, want %d", i, n, 1000/flightShards)
		}
	}
	var got, want strings.Builder
	if err := reg.WritePrometheus(&got); err != nil {
		t.Fatal(err)
	}
	if err := writeHistogram(&want, "lat_ns", &plain); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got.String(), want.String()) {
		t.Errorf("exposition of the sharded histogram:\n%s\nwant the plain one's series:\n%s", got.String(), want.String())
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram Quantile = %d, want 0", q)
	}
	vals := []int64{0, 1, 5, 100, 1000, 12345, 1 << 20, -7}
	var sum int64
	for _, v := range vals {
		h.Observe(v)
		if v > 0 {
			sum += v
		}
	}
	if h.Count() != int64(len(vals)) {
		t.Fatalf("Count() = %d, want %d", h.Count(), len(vals))
	}
	if h.Sum() != sum { // negative observation clamps to zero
		t.Fatalf("Sum() = %d, want %d", h.Sum(), sum)
	}
	p50, p95, p99, p100 := h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Quantile(1)
	if p50 > p95 || p95 > p99 || p99 > p100 {
		t.Fatalf("quantiles not monotone: p50=%d p95=%d p99=%d p100=%d", p50, p95, p99, p100)
	}
	// The top quantile must land in the bucket of the max observation.
	lo, hi := bucketBounds(bits.Len64(uint64(1 << 20)))
	if p100 < lo || p100 > hi {
		t.Fatalf("Quantile(1) = %d outside max bucket [%d, %d]", p100, lo, hi)
	}
}

func TestBucketBounds(t *testing.T) {
	if lo, hi := bucketBounds(0); lo != 0 || hi != 0 {
		t.Fatalf("bucket 0 = [%d, %d], want [0, 0]", lo, hi)
	}
	for i := 1; i < histBuckets; i++ {
		lo, hi := bucketBounds(i)
		if lo != 1<<(i-1) || hi != 1<<i-1 {
			t.Fatalf("bucket %d = [%d, %d], want [%d, %d]", i, lo, hi, 1<<(i-1), 1<<i-1)
		}
		if bits.Len64(uint64(lo)) != i || bits.Len64(uint64(hi)) != i {
			t.Fatalf("bucket %d bounds have wrong bit length", i)
		}
	}
}

// --- Prometheus text-format parser (hand-written, for exposition tests) ---

type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

type promDoc struct {
	types   map[string]string       // family name -> counter|gauge|histogram
	samples map[string][]promSample // family name -> samples in file order
}

func isValidMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		alpha := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// parsePromLine parses `name value` or `name{k="v",...} value`.
func parsePromLine(t *testing.T, no int, line string) promSample {
	t.Helper()
	s := promSample{labels: map[string]string{}}
	var after string
	if i := strings.IndexByte(line, '{'); i >= 0 {
		s.name = line[:i]
		rest := line[i+1:]
		for {
			eq := strings.IndexByte(rest, '=')
			if eq < 0 || eq+1 >= len(rest) || rest[eq+1] != '"' {
				t.Fatalf("line %d: malformed label pair in %q", no, line)
			}
			key := rest[:eq]
			if !isValidMetricName(key) {
				t.Fatalf("line %d: invalid label key %q", no, key)
			}
			var val strings.Builder
			j := eq + 2
			for j < len(rest) && rest[j] != '"' {
				c := rest[j]
				if c == '\\' {
					j++
					if j >= len(rest) {
						t.Fatalf("line %d: dangling escape", no)
					}
					switch rest[j] {
					case 'n':
						val.WriteByte('\n')
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					default:
						t.Fatalf("line %d: bad escape \\%c", no, rest[j])
					}
				} else {
					val.WriteByte(c)
				}
				j++
			}
			if j >= len(rest) {
				t.Fatalf("line %d: unterminated label value", no)
			}
			s.labels[key] = val.String()
			j++ // past closing quote
			if j >= len(rest) {
				t.Fatalf("line %d: truncated after label value", no)
			}
			if rest[j] == ',' {
				rest = rest[j+1:]
				continue
			}
			if rest[j] == '}' {
				after = rest[j+1:]
				break
			}
			t.Fatalf("line %d: expected ',' or '}' after label value in %q", no, line)
		}
	} else {
		var ok bool
		s.name, after, ok = strings.Cut(line, " ")
		if !ok {
			t.Fatalf("line %d: no value in %q", no, line)
		}
		after = " " + after
	}
	if !isValidMetricName(s.name) {
		t.Fatalf("line %d: invalid metric name %q", no, s.name)
	}
	valStr := strings.TrimSpace(after)
	v, err := strconv.ParseFloat(valStr, 64)
	if err != nil {
		t.Fatalf("line %d: bad sample value %q: %v", no, valStr, err)
	}
	s.value = v
	return s
}

// parsePrometheus validates the text exposition format: HELP/TYPE comments
// precede their samples, kinds are legal, sample syntax parses, and no
// series (name + label set) appears twice.
func parsePrometheus(t *testing.T, text string) promDoc {
	t.Helper()
	doc := promDoc{types: map[string]string{}, samples: map[string][]promSample{}}
	helps := map[string]bool{}
	seen := map[string]bool{}
	for ln, line := range strings.Split(text, "\n") {
		no := ln + 1
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, found := strings.Cut(rest, " ")
			if !found || !isValidMetricName(name) {
				t.Fatalf("line %d: malformed HELP %q", no, line)
			}
			helps[name] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, found := strings.Cut(rest, " ")
			if !found || !isValidMetricName(name) {
				t.Fatalf("line %d: malformed TYPE %q", no, line)
			}
			if kind != "counter" && kind != "gauge" && kind != "histogram" {
				t.Fatalf("line %d: illegal TYPE kind %q", no, kind)
			}
			if _, dup := doc.types[name]; dup {
				t.Fatalf("line %d: duplicate TYPE for %q", no, name)
			}
			doc.types[name] = kind
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unrecognized comment %q", no, line)
		}
		s := parsePromLine(t, no, line)
		base := s.name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if trimmed, ok := strings.CutSuffix(s.name, suf); ok && doc.types[trimmed] == "histogram" {
				base = trimmed
				break
			}
		}
		if _, ok := doc.types[base]; !ok {
			t.Fatalf("line %d: sample %q appears before its TYPE", no, s.name)
		}
		if !helps[base] {
			t.Fatalf("line %d: sample %q appears before its HELP", no, s.name)
		}
		key := s.name
		for k, v := range s.labels {
			key += "|" + k + "=" + v
		}
		if len(s.labels) > 1 {
			t.Fatalf("line %d: more than one label on %q (registry emits at most one)", no, s.name)
		}
		if seen[key] {
			t.Fatalf("line %d: duplicate series %q", no, key)
		}
		seen[key] = true
		doc.samples[base] = append(doc.samples[base], s)
	}
	return doc
}

// checkPromHistogram validates the cumulative-bucket invariants of one
// histogram family: le bounds strictly increase, cumulative counts never
// decrease, the +Inf bucket exists and equals _count.
func checkPromHistogram(t *testing.T, doc promDoc, name string) (count, sum float64) {
	t.Helper()
	var prevLe, prevCum = math.Inf(-1), -1.0
	var infCount float64
	seenInf, seenCount, seenSum := false, false, false
	for _, s := range doc.samples[name] {
		switch s.name {
		case name + "_bucket":
			leStr, ok := s.labels["le"]
			if !ok {
				t.Fatalf("%s_bucket sample without le label", name)
			}
			le, err := strconv.ParseFloat(leStr, 64)
			if err != nil {
				t.Fatalf("%s_bucket: bad le %q", name, leStr)
			}
			if le <= prevLe {
				t.Fatalf("%s_bucket: le %v not increasing (prev %v)", name, le, prevLe)
			}
			if s.value < prevCum {
				t.Fatalf("%s_bucket{le=%q}: cumulative count %v decreased (prev %v)", name, leStr, s.value, prevCum)
			}
			prevLe, prevCum = le, s.value
			if math.IsInf(le, 1) {
				seenInf, infCount = true, s.value
			}
		case name + "_count":
			seenCount, count = true, s.value
		case name + "_sum":
			seenSum, sum = true, s.value
		default:
			t.Fatalf("unexpected sample %q in histogram family %q", s.name, name)
		}
	}
	if !seenInf || !seenCount || !seenSum {
		t.Fatalf("histogram %q missing series: +Inf=%v _count=%v _sum=%v", name, seenInf, seenCount, seenSum)
	}
	if infCount != count {
		t.Fatalf("histogram %q: +Inf bucket %v != _count %v", name, infCount, count)
	}
	return count, sum
}

// --- registry / exposition ---

func TestRegistryPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("jobs_total", "Jobs processed.").Add(7)
	reg.Gauge("queue_depth", "Current queue depth.").Set(3)
	cv := reg.CounterVec("ops_total", "Operations by kind.", "op")
	cv.With("get").Add(2)
	cv.With(`we"ird\la` + "\n" + `bel`).Inc()
	h := reg.Histogram("lat_ns", "Latency.")
	for _, v := range []int64{0, 3, 9, 1000, 1_000_000} {
		h.Observe(v)
	}
	// Two funcs plus a native single counter on one name must sum into
	// exactly one plain sample.
	reg.CounterFunc("mirrored_total", "Producer-mirrored counter.", func() int64 { return 3 })
	reg.CounterFunc("mirrored_total", "Producer-mirrored counter.", func() int64 { return 4 })
	reg.Counter("mirrored_total", "Producer-mirrored counter.").Add(5)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	doc := parsePrometheus(t, b.String())

	if doc.types["jobs_total"] != "counter" || doc.types["queue_depth"] != "gauge" ||
		doc.types["ops_total"] != "counter" || doc.types["lat_ns"] != "histogram" {
		t.Fatalf("TYPE lines wrong: %v", doc.types)
	}
	get := func(fam string, label map[string]string) float64 {
		t.Helper()
		for _, s := range doc.samples[fam] {
			if len(s.labels) != len(label) {
				continue
			}
			match := true
			for k, v := range label {
				if s.labels[k] != v {
					match = false
				}
			}
			if match {
				return s.value
			}
		}
		t.Fatalf("no sample %s%v in:\n%s", fam, label, b.String())
		return 0
	}
	if v := get("jobs_total", nil); v != 7 {
		t.Fatalf("jobs_total = %v, want 7", v)
	}
	if v := get("queue_depth", nil); v != 3 {
		t.Fatalf("queue_depth = %v, want 3", v)
	}
	if v := get("ops_total", map[string]string{"op": "get"}); v != 2 {
		t.Fatalf(`ops_total{op="get"} = %v, want 2`, v)
	}
	// The escaped label value must round-trip through the parser.
	if v := get("ops_total", map[string]string{"op": `we"ird\la` + "\n" + `bel`}); v != 1 {
		t.Fatalf("escaped label sample = %v, want 1", v)
	}
	if v := get("mirrored_total", nil); v != 12 {
		t.Fatalf("mirrored_total = %v, want 3+4+5=12", v)
	}
	count, sum := checkPromHistogram(t, doc, "lat_ns")
	if count != 5 || sum != 1_001_012 {
		t.Fatalf("lat_ns count/sum = %v/%v, want 5/1001012", count, sum)
	}
}

func TestRegistryReRegisterPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter name as a gauge must panic")
		}
	}()
	reg.Gauge("x_total", "x")
}

func TestSnapshotJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c_total", "c").Add(9)
	reg.CounterVec("v_total", "v", "k").With("a").Add(4)
	h := reg.Histogram("h_ns", "h")
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	reg.GaugeFunc("g", "g", func() int64 { return 11 })

	raw, err := json.Marshal(reg.SnapshotJSON())
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got["c_total"].(float64) != 9 {
		t.Fatalf("c_total = %v", got["c_total"])
	}
	if got["g"].(float64) != 11 {
		t.Fatalf("g = %v", got["g"])
	}
	if v := got["v_total"].(map[string]any); v["a"].(float64) != 4 {
		t.Fatalf("v_total = %v", v)
	}
	hm := got["h_ns"].(map[string]any)
	for _, k := range []string{"count", "sum", "p50", "p95", "p99"} {
		if _, ok := hm[k]; !ok {
			t.Fatalf("h_ns snapshot missing %q: %v", k, hm)
		}
	}
	if hm["count"].(float64) != 100 || hm["sum"].(float64) != 5050 {
		t.Fatalf("h_ns count/sum = %v/%v", hm["count"], hm["sum"])
	}
	if hm["p50"].(float64) > hm["p95"].(float64) || hm["p95"].(float64) > hm["p99"].(float64) {
		t.Fatalf("h_ns quantiles not monotone: %v", hm)
	}
}

// --- forensics store ---

func TestForensicsRetention(t *testing.T) {
	s := newForensicsStore(4)
	if _, ok := s.Last(); ok {
		t.Fatal("empty store must report no last entry")
	}
	for i := 1; i <= 6; i++ {
		s.Add(RewindReport{Seq: int64(i), FailedUDI: i})
	}
	if s.Added() != 6 {
		t.Fatalf("Added() = %d, want 6", s.Added())
	}
	reps := s.Reports()
	if len(reps) != 4 {
		t.Fatalf("retained %d, want 4", len(reps))
	}
	for i, r := range reps {
		if r.Seq != int64(i+3) {
			t.Fatalf("report %d has seq %d, want %d (oldest-first, oldest two evicted)", i, r.Seq, i+3)
		}
	}
	last, ok := s.Last()
	if !ok || last.Seq != 6 {
		t.Fatalf("Last() = %+v/%v, want seq 6", last, ok)
	}
}

// --- recorder behavior ---

func TestRecorderDisabledRecordsNothing(t *testing.T) {
	rec := New(Options{})
	if !rec.Enabled() {
		t.Fatal("New must return an enabled recorder")
	}
	rec.SetEnabled(false)
	rec.RecordDomainInit(1, 2, 0, 100)
	rec.RecordEnter(1, 2, 50)
	rec.RecordExit(1, 2, 50)
	rec.RecordDiscard(1, 2, 100)
	rec.RecordHeapMerge(1, 2, 100)
	rec.RecordFault("SEGV_PKUERR", 4, 0x1000, 2, false)
	rec.RecordSignal(1, "SIGSEGV", 11, 4, 0x1000)
	rec.RecordCrash(1)
	rec.RecordThreadStart(1)
	rec.RecordThreadExit(1)
	rec.RecordRewind(RewindReport{Seq: 1, FailedUDI: 2, SiCodeName: "SEGV_PKUERR"})
	if n := rec.Flight().Written(); n != 0 {
		t.Fatalf("disabled recorder wrote %d flight events", n)
	}
	if n := rec.Forensics().Added(); n != 0 {
		t.Fatalf("disabled recorder stored %d forensics reports", n)
	}
	rec.SetEnabled(true)
	rec.RecordCrash(1)
	if n := rec.Flight().Written(); n != 1 {
		t.Fatalf("re-enabled recorder wrote %d events, want 1", n)
	}
}

func TestRecorderSampling(t *testing.T) {
	def := New(Options{})
	for n := uint64(0); n < 64; n++ {
		if got, want := def.Sampled(n), n%16 == 0; got != want {
			t.Fatalf("default Sampled(%d) = %v, want %v (1 in 16)", n, got, want)
		}
	}
	all := New(Options{TransitionSampleShift: -1})
	for n := uint64(0); n < 8; n++ {
		if !all.Sampled(n) {
			t.Fatalf("shift -1 must sample every transition, missed %d", n)
		}
	}
	half := New(Options{TransitionSampleShift: 1})
	for n := uint64(0); n < 8; n++ {
		if got, want := half.Sampled(n), n%2 == 0; got != want {
			t.Fatalf("shift 1 Sampled(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestRecordRewindAccounting(t *testing.T) {
	rec := New(Options{})
	rep := RewindReport{
		Seq: 1, ThreadID: 3, FailedUDI: 5, DomainStack: []int{0, 5},
		Signal: 11, SignalName: "SIGSEGV", SiCode: 4, SiCodeName: "SEGV_PKUERR",
		Addr: 0xbeef, PKey: 2, Injected: true,
		HeapBytes: 4096, RewindCount: 1,
	}
	rec.RecordRewind(rep)
	if rec.Forensics().Added() != 1 {
		t.Fatalf("Added() = %d, want 1", rec.Forensics().Added())
	}
	last, ok := rec.Forensics().Last()
	if !ok || last.FailedUDI != 5 || last.SiCodeName != "SEGV_PKUERR" {
		t.Fatalf("Last() = %+v/%v", last, ok)
	}
	if last.TimeNs == 0 {
		t.Fatal("RecordRewind must stamp TimeNs when the producer leaves it zero")
	}
	evs := rec.Flight().Snapshot()
	if len(evs) != 1 || evs[0].Kind != "rewind" || evs[0].UDI != 5 || evs[0].Aux != 1 {
		t.Fatalf("rewind flight event wrong: %+v", evs)
	}
	var b strings.Builder
	if err := rec.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	doc := parsePrometheus(t, b.String())
	find := func(fam, key, val string) float64 {
		t.Helper()
		for _, s := range doc.samples[fam] {
			if s.labels[key] == val {
				return s.value
			}
		}
		t.Fatalf("no %s{%s=%q} sample", fam, key, val)
		return 0
	}
	if v := find("sdrad_rewinds_total", "si_code", "SEGV_PKUERR"); v != 1 {
		t.Fatalf("sdrad_rewinds_total = %v, want 1", v)
	}
	if v := find("sdrad_domain_faults_total", "udi", "5"); v != 1 {
		t.Fatalf("sdrad_domain_faults_total = %v, want 1", v)
	}
	if v := find("sdrad_domain_last_fault_address", "udi", "5"); v != 0xbeef {
		t.Fatalf("sdrad_domain_last_fault_address = %v, want %d", v, 0xbeef)
	}
	for _, s := range doc.samples["sdrad_forensics_reports_total"] {
		if len(s.labels) == 0 && s.value != 1 {
			t.Fatalf("sdrad_forensics_reports_total = %v, want 1", s.value)
		}
	}
	checkPromHistogram(t, doc, "sdrad_enter_latency_ns")
	checkPromHistogram(t, doc, "sdrad_exit_latency_ns")
}

// TestRecorderExpositionParses checks the full pre-registered metric set
// of a working recorder against the text-format parser.
func TestRecorderExpositionParses(t *testing.T) {
	rec := New(Options{})
	rec.RecordDomainInit(1, 2, 1, 1<<20)
	rec.RecordEnter(1, 2, 120)
	rec.RecordExit(1, 2, 90)
	rec.RecordFault("SEGV_PKUERR", 4, 0x1000, 2, true)
	rec.RecordSignal(1, "SIGSEGV", 11, 4, 0x1000)
	rec.RecordRewind(RewindReport{Seq: 1, FailedUDI: 2, SiCodeName: "SEGV_PKUERR", SiCode: 4})
	rec.RecordDiscard(1, 2, 1<<20)
	rec.RecordHeapMerge(1, 3, 1<<10)
	rec.RecordCrash(1)

	var b strings.Builder
	if err := rec.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	doc := parsePrometheus(t, b.String())
	for _, fam := range []string{
		"sdrad_discarded_bytes_total", "sdrad_heap_merges_total",
		"sdrad_process_crashes_total", "sdrad_rewinds_total",
		"sdrad_faults_total", "sdrad_domain_faults_total",
		"sdrad_domain_last_fault_address", "sdrad_signals_total",
		"sdrad_enter_latency_ns", "sdrad_exit_latency_ns",
		"sdrad_flight_events_total", "sdrad_forensics_reports_total",
		"sdrad_forensics_reports_retained",
	} {
		if _, ok := doc.types[fam]; !ok {
			t.Errorf("pre-registered family %q missing from exposition", fam)
		}
	}
}

// --- HTTP surface ---

func TestHandlerEndpoints(t *testing.T) {
	rec := New(Options{})
	rec.RecordRewind(RewindReport{Seq: 1, FailedUDI: 7, SiCodeName: "SEGV_ACCERR"})
	srv := httptest.NewServer(rec.Handler())
	defer srv.Close()

	get := func(path string) []byte {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	parsePrometheus(t, string(get("/metrics")))

	var mj map[string]any
	if err := json.Unmarshal(get("/metrics.json"), &mj); err != nil {
		t.Fatalf("/metrics.json: %v", err)
	}
	var fr struct {
		Capacity int     `json:"capacity"`
		Written  uint64  `json:"written"`
		Events   []Event `json:"events"`
	}
	if err := json.Unmarshal(get("/flightrecorder"), &fr); err != nil {
		t.Fatalf("/flightrecorder: %v", err)
	}
	if fr.Capacity == 0 || fr.Written != 1 || len(fr.Events) != 1 {
		t.Fatalf("/flightrecorder = %+v", fr)
	}
	var fo struct {
		Total   int64          `json:"total"`
		Reports []RewindReport `json:"reports"`
	}
	if err := json.Unmarshal(get("/forensics"), &fo); err != nil {
		t.Fatalf("/forensics: %v", err)
	}
	if fo.Total != 1 || len(fo.Reports) != 1 || fo.Reports[0].FailedUDI != 7 {
		t.Fatalf("/forensics = %+v", fo)
	}
	if resp, err := srv.Client().Get(srv.URL + "/nope"); err != nil || resp.StatusCode != 404 {
		t.Fatalf("GET /nope: %v status=%v, want 404", err, resp.StatusCode)
	}
}

// --- concurrency hammer (run under -race) ---

// TestConcurrentHammer pounds the recorder from writer goroutines while
// readers snapshot the flight ring, scrape Prometheus text, take JSON
// snapshots, and read forensics. The all-atomic slot protocol and the
// mutex-guarded registry must be race-detector clean and must never
// produce a torn event.
func TestConcurrentHammer(t *testing.T) {
	rec := New(Options{FlightEvents: 256, ForensicsRetain: 8, TransitionSampleShift: -1})
	iters := 20000
	if testing.Short() {
		iters = 2000
	}
	const writers, readers = 4, 3
	var wWG, rWG sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wWG.Add(1)
		go func(tid int) {
			defer wWG.Done()
			for i := 0; i < iters; i++ {
				switch i % 6 {
				case 0:
					rec.RecordEnter(tid, i%4, int64(i))
				case 1:
					rec.RecordExit(tid, i%4, int64(i))
				case 2:
					rec.RecordFault("SEGV_PKUERR", 4, uint64(i), 2, false)
				case 3:
					rec.RecordDiscard(tid, i%4, uint64(i))
				case 4:
					rec.RecordRewind(RewindReport{Seq: int64(i), ThreadID: tid, FailedUDI: i % 4, SiCodeName: "SEGV_PKUERR"})
				case 5:
					rec.RecordSignal(tid, "SIGSEGV", 11, 4, uint64(i))
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		rWG.Add(1)
		go func(which int) {
			defer rWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch which {
				case 0:
					evs := rec.Flight().Snapshot()
					for i, ev := range evs {
						if ev.Kind == "unknown" {
							t.Errorf("torn event surfaced: %+v", ev)
							return
						}
						if i > 0 && evs[i].Seq <= evs[i-1].Seq {
							t.Errorf("snapshot out of order at %d", i)
							return
						}
					}
				case 1:
					if err := rec.Registry().WritePrometheus(io.Discard); err != nil {
						t.Errorf("WritePrometheus: %v", err)
						return
					}
					_ = rec.Registry().SnapshotJSON()
				case 2:
					_ = rec.Forensics().Reports()
					_, _ = rec.Forensics().Last()
				}
			}
		}(r)
	}
	wWG.Wait()
	close(stop)
	rWG.Wait()

	if got, want := rec.Flight().Written(), uint64(writers*iters); got != want {
		t.Fatalf("Written() = %d, want %d (every record call lands exactly one event)", got, want)
	}
	rewindsPerWriter := 0
	for i := 0; i < iters; i++ {
		if i%6 == 4 {
			rewindsPerWriter++
		}
	}
	if got, want := rec.Forensics().Added(), int64(writers*rewindsPerWriter); got != want {
		t.Fatalf("Added() = %d, want %d", got, want)
	}
}
