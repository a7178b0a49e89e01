package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"sdrad/internal/memcache"
	"sdrad/internal/ycsb"
)

// benchmarkFile mirrors BENCHMARK.json, the contract the driver reads.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json must say what the code does: the same workloads with the
// same reasons, the uniform end-to-end metrics with their bounds, every
// per-layer metric, all inside the contract's limits.
func TestBenchmarkFileMatchesSpec(t *testing.T) {
	f := readBenchmarkFile(t)
	if !slices.Equal(f.Command, []string{"bash", "benchmark/run.sh"}) || !slices.Equal(f.Paths, []string{"benchmark"}) {
		t.Errorf("command %q paths %q", f.Command, f.Paths)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", f.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("%s name %q is malformed or used twice", kind, n)
		}
		seen[n] = true
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		name("workload", w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: %q/%q, code has %q/%q", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.Name)
		}
	}
	var uniform []metricSpec
	for _, m := range endToEnd {
		if m.uniform() {
			uniform = append(uniform, m)
		}
	}
	if len(f.EndToEnd) != len(uniform) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d uniform in the code", len(f.EndToEnd), len(uniform))
	}
	setup := false
	for i, m := range f.EndToEnd {
		name("end_to_end", m.Name)
		want := uniform[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better || m.Bound != want.Bound {
			t.Errorf("end_to_end %d: %+v, code has %+v", i, m, want)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: unit %q bound %g outside the contract", m.Name, m.Unit, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if len(f.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in the code", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		name("per_layer", m.Name)
		if want := perLayer[i]; m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("per_layer %d: %+v, code has %+v", i, m, want)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per_layer %s: unit %q better %q outside the contract", m.Name, m.Unit, m.Better)
		}
	}
}

// resultLine is the last line a run prints for a workload.
type resultLine struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runQuick executes one short run and returns what it printed.
func runQuick(t *testing.T, o options) (lines []string, last resultLine) {
	t.Helper()
	o.seed, o.out, o.probeBatch = 7, filepath.Join(t.TempDir(), "result.json"), 200*time.Microsecond
	var stdout, stderr bytes.Buffer
	if code := execute(o, &stdout, &stderr); code != 0 {
		t.Fatalf("%s: exit %d: %s", o.workload, code, stderr.String())
	}
	lines = strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", o.workload, err)
	}
	if !last.Correct || last.Attempted < 1 || last.Failed != 0 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", o.workload, last.Correct, last.Attempted, last.Failed)
	}
	if _, err := loadDocument(o.out); err != nil {
		t.Errorf("%s: -out document: %v", o.workload, err)
	}
	return lines, last
}

// Every workload emits, untraced, exactly BENCHMARK.json's end-to-end
// metrics in its result line and every metric that applies to it as a
// "workload metric value unit" line.
func TestEveryEndToEndMetricEmitted(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, w := range f.Workloads {
		lines, last := runQuick(t, options{workload: w.Name, seconds: 0.2})
		if len(last.Metrics) != len(f.EndToEnd) {
			t.Errorf("%s: result line has %d metrics, want %d", w.Name, len(last.Metrics), len(f.EndToEnd))
		}
		for _, m := range f.EndToEnd {
			if got, ok := last.Metrics[m.Name]; !ok || got.Unit != m.Unit || got.Value <= 0 {
				t.Errorf("%s: result line %s = %+v (present %v), want a positive value in %s", w.Name, m.Name, got, ok, m.Unit)
			}
		}
		for _, m := range endToEnd {
			line := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, w.Name+" "+m.Name+" ") })
			if m.appliesTo(w.Name) != (line >= 0) {
				t.Errorf("%s: %s printed=%v, applies=%v", w.Name, m.Name, line >= 0, m.appliesTo(w.Name))
			}
			if line >= 0 && (len(strings.Fields(lines[line])) != 4 || !strings.HasSuffix(lines[line], " "+m.Unit)) {
				t.Errorf("%s: malformed metric line %q", w.Name, lines[line])
			}
		}
	}
}

// A traced run emits every per-layer metric and writes trace.json with
// request and probe spans and the counter deltas. mc_attack is the traced
// workload that exercises the most: it rewinds while it is traced.
func TestEveryPerLayerMetricEmitted(t *testing.T) {
	f := readBenchmarkFile(t)
	o := options{workload: "mc_attack", seconds: 1, trace: true}
	_, last := runQuick(t, o)
	if len(last.Metrics) != len(f.PerLayer) {
		t.Errorf("result line has %d metrics, want %d", len(last.Metrics), len(f.PerLayer))
	}
	for _, m := range f.PerLayer {
		if got, ok := last.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("result line lacks %s in %s (got %+v)", m.Name, m.Unit, got)
		}
	}
	for _, must := range []string{"core.guard_scope_ns", "core.switches_per_op", "core.rewinds_per_s", "mem.lease_renewals_per_op", "memcache.batch_size_mean", "env.calib_ns"} {
		if last.Metrics[must].Value <= 0 {
			t.Errorf("%s = %g on a traced attacked run, want > 0", must, last.Metrics[must].Value)
		}
	}
}

func TestTraceDocument(t *testing.T) {
	tr := newTracer()
	leave := tr.enter("workload.x")
	slice := tr.begin("slice.traced", tr.root())
	t0 := time.Now()
	tr.keep([]span{tr.request(slice, 1, 64, t0, t0.Add(time.Microsecond))}, 100)
	tr.end(slice)
	leave()
	tr.deltas["x"] = counters{"core.domain_switches": 200}
	path := filepath.Join(t.TempDir(), "out", "trace.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		SpanCounts    map[string]int64            `json:"span_counts"`
		CounterDeltas map[string]map[string]int64 `json:"counter_deltas"`
		Spans         []span                      `json:"spans"`
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.SpanCounts["request"] != 100 || doc.CounterDeltas["x"]["core.domain_switches"] != 200 || len(doc.Spans) != 3 {
		t.Fatalf("trace document = %+v", doc)
	}
	req := doc.Spans[2]
	if req.Name != "request" || req.Parent != slice || doc.Spans[1].Parent != doc.Spans[0].ID || req.EndNs-req.StartNs != 1000 {
		t.Errorf("spans = %+v", doc.Spans)
	}
}

// The same seed plans byte-identical requests in the same order; another
// seed plans another order.
func TestStreamFollowsSeed(t *testing.T) {
	w := findWorkload("mc_update")
	a, err := newStream(w, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := newStream(w, 42)
	c, _ := newStream(w, 43)
	if !reflect.DeepEqual(a, b) {
		t.Error("seed 42 twice: streams differ")
	}
	if reflect.DeepEqual(a.seq, c.seq) {
		t.Error("seeds 42 and 43: same sequences")
	}
	if slices.Equal(a.seq[0], a.seq[1]) {
		t.Error("both clients draw the same sequence")
	}
	burst := make([][]byte, 4)
	if pos := a.fill(burst, 0, streamLen-2); pos != 2 {
		t.Errorf("fill across the end of the sequence: pos = %d, want 2", pos)
	}
	if !bytes.Equal(burst[2], a.reqs[a.seq[0][0]]) {
		t.Error("fill did not wrap around to the start of the sequence")
	}
}

func TestPercentileAndMedianExact(t *testing.T) {
	var s []uint32
	for i := uint32(1); i <= 1000; i++ {
		s = append(s, i)
	}
	for p, want := range map[float64]uint32{0.5: 500, 0.99: 990, 0.999: 999, 1: 1000, 0.0001: 1} {
		if got := percentile(s, p); got != want {
			t.Errorf("percentile(1..1000, %g) = %d, want %d", p, got, want)
		}
	}
	if got := percentile([]uint32{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %d", got)
	}
	if got := percentile([]float64(nil), 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g", got)
	}
	in := []float64{9, 1, 5}
	if got := median(in); got != 5 || in[0] != 9 {
		t.Errorf("median(9,1,5) = %g, input now %v", got, in)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %g", got)
	}
	rs := []round{
		{Ref: sliceStats{TputOpsS: 100}, Hard: sliceStats{TputOpsS: 90}},
		{Ref: sliceStats{TputOpsS: 200}, Hard: sliceStats{TputOpsS: 100}},
		{Ref: sliceStats{TputOpsS: 50}, Hard: sliceStats{TputOpsS: 40}},
	}
	if got := medianOf(rs, pairedRatio); got != 0.8 {
		t.Errorf("median of paired ratios = %g, want 0.8 (not the ratio of medians, 0.9)", got)
	}
}

// The reply gate passes what a real server answers and trips on one
// flipped byte, a miss on a keyspace that fits, and a set not STORED.
func TestGateTripsOnCorruptedReply(t *testing.T) {
	srv, err := memcache.NewServer(memcache.Config{Variant: memcache.VariantSDRaD, Workers: 1, CacheBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	conn := srv.NewConn()
	const rec = 12345
	set := memcache.FormatSet(ycsb.Key(rec), ycsb.Value(rec, valueSize), 0)
	get := memcache.FormatGet(ycsb.Key(rec))
	stored, _, err := conn.Do(set)
	if err != nil {
		t.Fatal(err)
	}
	hit, _, err := conn.Do(get)
	if err != nil {
		t.Fatal(err)
	}
	miss, _, _ := conn.Do(memcache.FormatGet(ycsb.Key(rec + 1)))

	ok := func(req, resp []byte, mayMiss bool) error {
		_, err := checkMemcache(req, resp, false, nil, mayMiss)
		return err
	}
	if err := ok(set, stored, false); err != nil {
		t.Errorf("real set reply: %v", err)
	}
	if err := ok(get, hit, false); err != nil {
		t.Errorf("real get reply: %v", err)
	}
	if err := ok(memcache.FormatGet(ycsb.Key(rec+1)), miss, true); err != nil {
		t.Errorf("miss where misses are allowed: %v", err)
	}
	for i := 0; i < len(hit); i += 97 {
		bad := bytes.Clone(hit)
		bad[i] ^= 1
		if err := ok(get, bad, true); !errors.Is(err, errViolation) {
			t.Errorf("get reply with byte %d flipped passed the gate", i)
		}
	}
	for what, err := range map[string]error{
		"truncated hit":           ok(get, hit[:len(hit)-1], true),
		"another record's value":  ok(memcache.FormatGet(ycsb.Key(rec+1)), hit, true),
		"miss on a fit keyspace":  ok(get, miss, false),
		"set answered NOT_STORED": ok(set, []byte("NOT_STORED\r\n"), true),
		"server error":            func() error { _, err := checkMemcache(get, nil, false, memcache.ErrServerDown, true); return err }(),
	} {
		if !errors.Is(err, errViolation) {
			t.Errorf("%s passed the gate (err = %v)", what, err)
		}
	}
	if closed, err := checkMemcache(get, nil, true, memcache.ErrConnClosed, false); !closed || err != nil {
		t.Errorf("closed connection: closed=%v err=%v, want it reported, not judged", closed, err)
	}

	good := append([]byte("HTTP/1.1 200 OK\r\nServer: x\r\nContent-Length: 1024\r\nConnection: keep-alive\r\n\r\n"), httpBody...)
	if !httpReplyOK(good) {
		t.Error("well-formed http reply rejected")
	}
	for what, bad := range map[string][]byte{
		"flipped body byte": func() []byte { b := bytes.Clone(good); b[len(b)-9] ^= 1; return b }(),
		"short body":        good[:len(good)-1],
		"404":               bytes.Replace(good, []byte("200 OK"), []byte("404 Not Found"), 1),
		"no header end":     []byte("HTTP/1.1 200 OK\r\n"),
	} {
		if httpReplyOK(bad) {
			t.Errorf("http reply with %s passed the gate", what)
		}
	}
}

// A violation inside a run ends it with exit code 1 and not one metric.
func TestViolationPrintsNoMetrics(t *testing.T) {
	w := *findWorkload("mc_d1")
	e, err := newEngine(&w, 1, 0.4, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := buildServer(e.w, e.st, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.stop()
	a := newArm(armSpec{name: "sdrad", hardened: true}, srv)
	a.sess[1] = corruptSession{}
	if _, err := e.runSlice(a, 0); !errors.Is(err, errViolation) {
		t.Errorf("slice with a corrupted reply: err = %v, want a violation", err)
	}

	// End to end: a keyspace declared to fit a cache that cannot hold it
	// misses, which a fit workload must never do.
	broken := *findWorkload("mc_update")
	broken.Name, broken.fit = "broken", true
	workloads = append(workloads, broken)
	defer func() { workloads = workloads[:len(workloads)-1] }()
	var stdout, stderr bytes.Buffer
	code := execute(options{workload: "broken", seed: 1, seconds: 0.4, out: filepath.Join(t.TempDir(), "r.json")}, &stdout, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "correctness violation") {
		t.Errorf("exit %d, stderr %q; want 1 and a correctness violation", code, stderr.String())
	}
	for _, l := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		if !strings.HasPrefix(l, "#") {
			t.Errorf("printed %q after a violation", l)
		}
	}
}

type corruptSession struct{}

func (corruptSession) call([][]byte) (bool, error) { return false, violation("reply corrupted") }

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, tput, ratio, fail float64) string {
		doc := document{Schema: schema, Workloads: []*result{{
			Workload: "mc_attack",
			Metrics:  map[string]float64{"tput_ops_s": tput, "attack_goodput_ratio": ratio, "fail_frac": fail},
		}}}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, doc); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 400000, 0.90, 2.0e-4)
	for _, c := range []struct {
		name              string
		tput, ratio, fail float64
		code              int
		names             string
	}{
		{"same", 400000, 0.90, 2.0e-4, 0, ""},
		{"within", 370000, 0.95, 2.9e-4, 0, ""},
		{"tput worse", 290000, 0.90, 2.0e-4, 1, "tput_ops_s"},
		{"tput better", 510000, 0.90, 2.0e-4, 1, "tput_ops_s"},
		{"ratio worse", 400000, 0.82, 2.0e-4, 1, "attack_goodput_ratio"},
		{"fail absolute", 400000, 0.90, 3.1e-4, 1, "fail_frac"},
	} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-compare", base, write("b.json", c.tput, c.ratio, c.fail)}, &stdout, &stderr)
		if code != c.code {
			t.Errorf("%s: exit %d, want %d\n%s%s", c.name, code, c.code, stdout.String(), stderr.String())
		}
		if c.names != "" {
			flagged := slices.ContainsFunc(strings.Split(stdout.String(), "\n"), func(l string) bool {
				return strings.Contains(l, "BEYOND BOUND") && strings.Contains(l, c.names) && strings.Contains(l, "mc_attack")
			})
			if !flagged {
				t.Errorf("%s: output does not name mc_attack %s:\n%s", c.name, c.names, stdout.String())
			}
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-compare", base}, &stdout, &stderr); code != 2 {
		t.Errorf("-compare with one file: exit %d, want 2", code)
	}
}

func TestTraceFlagForms(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"--workload mc_d1 --seed 3 --seconds 10 --trace 0", "--workload mc_d1 --seed 3 --seconds 10 --trace=0"},
		{"--trace 1 --seed 3", "--trace=1 --seed 3"},
		{"-trace -seed 3", "-trace -seed 3"},
		{"-seed 3 -trace", "-seed 3 -trace"},
	} {
		if got := strings.Join(splitTrace(strings.Fields(c.in)), " "); got != c.want {
			t.Errorf("splitTrace(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}
