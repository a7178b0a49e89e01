package telemetry

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"sdrad/internal/cacheline"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets covers [0, 2^47) ns — sub-ns to ~1.6 days — in log2 steps.
const histBuckets = 48

// Histogram is a lock-free log2-bucketed histogram of non-negative
// int64 observations (nanoseconds, byte counts). Bucket i holds values
// whose bit length is i, i.e. the range [2^(i-1), 2^i-1]; bucket 0 holds
// zero. Observe is three atomic adds. A sharded histogram (Registry's
// ShardedHistogram) keeps its observations in several cells, each on
// lines of its own, so writers of different shards (ObserveShard) write
// no common line; Count, Sum, Quantile and exposition sum over the cells.
type Histogram struct {
	one   histCell   // a plain histogram's one cell
	cells []histCell // a sharded histogram's cells; nil for a plain one
}

// histCell is one cell of a Histogram, padded at both ends.
type histCell struct {
	_       cacheline.Pad
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
	_       cacheline.Pad
}

// all returns the histogram's cells.
func (h *Histogram) all() []histCell {
	if h.cells == nil {
		return unsafe.Slice(&h.one, 1)
	}
	return h.cells
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) { h.ObserveShard(0, v) }

// ObserveShard records one value in the cell of shard (any non-negative
// int, such as a thread ID: shards past the cell count wrap). A plain
// histogram has one cell.
func (h *Histogram) ObserveShard(shard int, v int64) {
	c := &h.one
	if h.cells != nil {
		c = &h.cells[uint(shard)%uint(len(h.cells))]
	}
	if v < 0 {
		v = 0
	}
	i := bits.Len64(uint64(v))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	c.buckets[i].Add(1)
	c.count.Add(1)
	c.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	cells := h.all()
	for i := range cells {
		n += cells[i].count.Load()
	}
	return n
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 {
	var n int64
	cells := h.all()
	for i := range cells {
		n += cells[i].sum.Load()
	}
	return n
}

// buckets returns the bucket counts summed over the cells and their total.
func (h *Histogram) buckets() (counts [histBuckets]int64, total int64) {
	cells := h.all()
	for i := range counts {
		for c := range cells {
			counts[i] += cells[c].buckets[i].Load()
		}
		total += counts[i]
	}
	return counts, total
}

// Quantile returns an estimate of the q-quantile (0 < q <= 1) by linear
// interpolation inside the containing log2 bucket, or 0 with no data.
func (h *Histogram) Quantile(q float64) int64 {
	counts, total := h.buckets()
	if total <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, n := range counts {
		if n == 0 {
			continue
		}
		if cum+n >= target {
			lo, hi := bucketBounds(i)
			frac := float64(target-cum) / float64(n)
			return lo + int64(frac*float64(hi-lo))
		}
		cum += n
	}
	_, hi := bucketBounds(histBuckets - 1)
	return hi
}

// bucketBounds returns the inclusive [lo, hi] value range of bucket i.
func bucketBounds(i int) (lo, hi int64) {
	if i == 0 {
		return 0, 0
	}
	return 1 << (i - 1), 1<<i - 1
}

// metric family kinds for exposition.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// family is one exposition family: either a single metric, a labeled set
// of children, or a list of callback funcs whose values are summed (so
// several producers — e.g. one reference monitor per worker process —
// can feed one series).
type family struct {
	name     string
	help     string
	kind     string
	labelKey string

	mu       sync.Mutex
	single   any
	children map[string]any
	order    []string
	funcs    []func() int64
}

func (f *family) child(label string, mk func() any) any {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.children == nil {
		f.children = make(map[string]any)
	}
	m, ok := f.children[label]
	if !ok {
		m = mk()
		f.children[label] = m
		f.order = append(f.order, label)
	}
	return m
}

// funcValue sums the registered callbacks.
func (f *family) funcValue() int64 {
	var v int64
	for _, fn := range f.funcs {
		v += fn()
	}
	return v
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With returns the child counter for the label value, creating it on
// first use.
func (v *CounterVec) With(label string) *Counter {
	return v.f.child(label, func() any { return new(Counter) }).(*Counter)
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// With returns the child gauge for the label value.
func (v *GaugeVec) With(label string) *Gauge {
	return v.f.child(label, func() any { return new(Gauge) }).(*Gauge)
}

// Registry is a get-or-create metrics registry with Prometheus text
// exposition and a JSON snapshot. Families expose in registration order.
type Registry struct {
	mu     sync.Mutex
	order  []*family
	byName map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// lookup returns the family, creating it if absent; it panics on a
// name registered with a different kind or label key — that is a
// programming error, not a runtime condition.
func (r *Registry) lookup(name, help, kind, labelKey string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind || f.labelKey != labelKey {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as %s/%q (was %s/%q)",
				name, kind, labelKey, f.kind, f.labelKey))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labelKey: labelKey}
	r.byName[name] = f
	r.order = append(r.order, f)
	return f
}

// Counter returns the plain counter with the given name, creating it on
// first use.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.lookup(name, help, kindCounter, "")
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.single == nil {
		f.single = new(Counter)
	}
	return f.single.(*Counter)
}

// Gauge returns the plain gauge with the given name.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.lookup(name, help, kindGauge, "")
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.single == nil {
		f.single = new(Gauge)
	}
	return f.single.(*Gauge)
}

// Histogram returns the histogram with the given name.
func (r *Registry) Histogram(name, help string) *Histogram {
	return r.ShardedHistogram(name, help, 1)
}

// ShardedHistogram returns the histogram with the given name, made with
// one cell per shard if it is new (ObserveShard).
func (r *Registry) ShardedHistogram(name, help string, shards int) *Histogram {
	f := r.lookup(name, help, kindHistogram, "")
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.single == nil {
		h := new(Histogram)
		if shards > 1 {
			h.cells = make([]histCell, shards)
		}
		f.single = h
	}
	return f.single.(*Histogram)
}

// CounterVec returns the labeled counter family with the given name and
// label key.
func (r *Registry) CounterVec(name, help, labelKey string) *CounterVec {
	return &CounterVec{f: r.lookup(name, help, kindCounter, labelKey)}
}

// GaugeVec returns the labeled gauge family with the given name and
// label key.
func (r *Registry) GaugeVec(name, help, labelKey string) *GaugeVec {
	return &GaugeVec{f: r.lookup(name, help, kindGauge, labelKey)}
}

// CounterFunc registers a callback-backed counter. Multiple callbacks on
// one name are summed at exposition — the pattern for mirroring native
// producer counters (monitor stats, MMU stats) without double-counting
// writes on the hot path.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	f := r.lookup(name, help, kindCounter, "")
	f.mu.Lock()
	defer f.mu.Unlock()
	f.funcs = append(f.funcs, fn)
}

// GaugeFunc registers a callback-backed gauge; multiple callbacks sum.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	f := r.lookup(name, help, kindGauge, "")
	f.mu.Lock()
	defer f.mu.Unlock()
	f.funcs = append(f.funcs, fn)
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// escapeHelp escapes a HELP string per the Prometheus text format.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.order...)
	r.mu.Unlock()
	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.name, escapeHelp(f.help), f.name, f.kind); err != nil {
			return err
		}
		if err := f.write(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) write(w io.Writer) error {
	f.mu.Lock()
	single := f.single
	labels := append([]string(nil), f.order...)
	children := make(map[string]any, len(labels))
	for _, l := range labels {
		children[l] = f.children[l]
	}
	hasPlain := single != nil || len(f.funcs) > 0
	var plain int64
	if len(f.funcs) > 0 {
		plain = f.funcValue()
	}
	f.mu.Unlock()

	sort.Strings(labels)
	switch f.kind {
	case kindHistogram:
		h, _ := single.(*Histogram)
		if h == nil {
			h = new(Histogram)
		}
		return writeHistogram(w, f.name, h)
	default:
		switch m := single.(type) {
		case *Counter:
			plain += m.Value()
		case *Gauge:
			plain += m.Value()
		}
		if hasPlain {
			if _, err := fmt.Fprintf(w, "%s %d\n", f.name, plain); err != nil {
				return err
			}
		}
		for _, l := range labels {
			var v int64
			switch m := children[l].(type) {
			case *Counter:
				v = m.Value()
			case *Gauge:
				v = m.Value()
			}
			if _, err := fmt.Fprintf(w, "%s{%s=\"%s\"} %d\n",
				f.name, f.labelKey, escapeLabel(l), v); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeHistogram writes the cumulative bucket series plus _sum and
// _count. Bucket upper bounds are 0, 1, 3, 7, ... 2^i-1, then +Inf;
// empty high buckets beyond the last populated one are elided.
func writeHistogram(w io.Writer, name string, h *Histogram) error {
	// Derive _count from the one pass over the buckets rather than the
	// live count fields, so the series stays internally consistent
	// (+Inf == _count) under concurrent Observe calls.
	counts, count := h.buckets()
	top := 0
	for i, n := range counts {
		if n > 0 {
			top = i
		}
	}
	var cum int64
	for i := 0; i <= top; i++ {
		cum += counts[i]
		_, hi := bucketBounds(i)
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, hi, cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n",
		name, h.Sum(), name, count); err != nil {
		return err
	}
	return nil
}

// SnapshotJSON returns the registry as a JSON-marshalable map: plain
// metrics as numbers, labeled families as {label: value} objects, and
// histograms as {count, sum, p50, p95, p99}.
func (r *Registry) SnapshotJSON() map[string]any {
	r.mu.Lock()
	fams := append([]*family(nil), r.order...)
	r.mu.Unlock()
	out := make(map[string]any, len(fams))
	for _, f := range fams {
		f.mu.Lock()
		switch {
		case f.kind == kindHistogram:
			h, _ := f.single.(*Histogram)
			if h == nil {
				h = new(Histogram)
			}
			out[f.name] = map[string]int64{
				"count": h.Count(),
				"sum":   h.Sum(),
				"p50":   h.Quantile(0.50),
				"p95":   h.Quantile(0.95),
				"p99":   h.Quantile(0.99),
			}
		case f.labelKey != "":
			m := make(map[string]int64, len(f.order))
			for _, l := range f.order {
				switch c := f.children[l].(type) {
				case *Counter:
					m[l] = c.Value()
				case *Gauge:
					m[l] = c.Value()
				}
			}
			out[f.name] = m
		default:
			var v int64
			if len(f.funcs) > 0 {
				v = f.funcValue()
			}
			switch m := f.single.(type) {
			case *Counter:
				v += m.Value()
			case *Gauge:
				v += m.Value()
			}
			out[f.name] = v
		}
		f.mu.Unlock()
	}
	return out
}
