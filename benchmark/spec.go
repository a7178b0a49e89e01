package main

import "sdrad/internal/memcache"

// A workload is one traffic mix against one server family. Names are
// fixed: later issues cite them.
type workload struct {
	Name string
	Why  string

	// httpd selects the httpd.Master family; the rest are memcache.
	httpd bool
	// Memcache sizing and mix (YCSB terms).
	records    int
	cacheBytes uint64
	hashPower  int
	readShare  float64
	dist       string // "zipfian" or "uniform"
	// fit says the cache holds the whole keyspace, so a get may never miss.
	fit bool
	// depth is the requests per client call: 1 is Conn.Do, more is one
	// Conn.DoPipeline burst.
	depth int
	// attack makes the hardened arm the same server under the
	// CVE-2011-4971 trap and the reference arm its calm slice.
	attack bool
}

const (
	valueSize  = 1024
	fitRecords = 20000
	httpPath   = "/f1k.bin"
)

// fitCache is the cache size that holds n records with slab slack, the
// sizing internal/bench uses for its YCSB cells.
func fitCache(n int) uint64 { return uint64(n)*1536 + 8<<20 }

var workloads = []workload{
	{
		Name: "mc_d1", Why: "memcache YCSB-B, depth 1: one guard scope per client event, the paper's configuration; core Guard/Enter/Exit, the conn-buffer copy and the channel hand-off do most of the work",
		records: fitRecords, cacheBytes: fitCache(fitRecords), hashPower: 15, readShare: 0.95, dist: "zipfian", fit: true, depth: 1,
	},
	{
		Name: "mc_d16", Why: "same data and mix in DoPipeline bursts of 16: guard cost amortised 16x, so mem leases, parse, Storage and reply assembly dominate; a guard-path win must show as no change here",
		records: fitRecords, cacheBytes: fitCache(fitRecords), hashPower: 15, readShare: 0.95, dist: "zipfian", fit: true, depth: 16,
	},
	{
		Name: "mc_update", Why: "50/50 read/update, uniform keys over a keyspace larger than the cache, depth 4: deferred-op overlay, ApplyShardBatch, slab eviction, shard locks; shows a read-path gain that taxes writes",
		records: 40000, cacheBytes: 32 << 20, hashPower: 15, readShare: 0.5, dist: "uniform", depth: 4,
	},
	{
		Name: "mc_attack", Why: "mc_d1 data at depth 4 on the hardened server, a CVE-2011-4971 trap every 10 ms, against its own calm slices: the only workload where rewind, discard, re-init and blast radius do work",
		records: fitRecords, cacheBytes: fitCache(fitRecords), hashPower: 15, readShare: 0.95, dist: "zipfian", fit: true, depth: 4, attack: true,
	},
	{
		Name: "httpd_1k", Why: "httpd.Master, 2 workers, 1 KiB file, keep-alive, depth 1: persistent parser domain entered per request, per-request pool reset; the NGINX case and the second worker loop",
		httpd: true, depth: 1,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// The servers are built the way a user gets them: variant, two workers
// and sizing; Sched, Policy and every other knob stay at their defaults,
// so a later change of a default is measured as users will meet it.
const (
	serverWorkers = 2
	clients       = 2 // one client goroutine per worker; nproc is 2
)

func (w *workload) memcacheConfig(v memcache.Variant) memcache.Config {
	return memcache.Config{Variant: v, Workers: serverWorkers, HashPower: w.hashPower, CacheBytes: w.cacheBytes}
}

// metricSpec names one end-to-end metric and fixes how far it may worsen.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the reference value by which the metric may
	// worsen; with abs set it is an absolute difference instead.
	Bound float64
	abs   bool
	// only restricts the metric to one workload ("" = every workload).
	only string
	// unsteady keeps a metric that is defined everywhere out of the driver's
	// hands: its run-to-run spread on a shared box exceeds any bound the
	// driver accepts (see README.md).
	unsteady bool
}

// endToEnd lists every end-to-end metric the benchmark reports. The ones
// defined and non-zero on every workload (uniform) are the ones
// BENCHMARK.json hands to the driver; the rest are judged by -compare.
var endToEnd = []metricSpec{
	{Name: "tput_ops_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "hardening_ratio", Unit: "ratio", Better: "higher", Bound: 0.08},
	{Name: "attack_goodput_ratio", Unit: "ratio", Better: "higher", Bound: 0.08, only: "mc_attack"},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "lat_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "lat_p99_us", Unit: "us", Better: "lower", Bound: 0.25, unsteady: true},
	{Name: "lat_p999_us", Unit: "us", Better: "lower", Bound: 0.25, only: "mc_attack"},
	{Name: "rewind_p50_us", Unit: "us", Better: "lower", Bound: 0.15, only: "mc_attack"},
	{Name: "fail_frac", Unit: "ratio", Better: "lower", Bound: 1e-4, abs: true},
	{Name: "mapped_mib", Unit: "MiB", Better: "lower", Bound: 0.02},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// uniform reports whether the metric is handed to the driver: defined on
// every workload, never zero, and bounded as a share.
func (m metricSpec) uniform() bool { return m.only == "" && !m.abs && !m.unsteady }

func (m metricSpec) appliesTo(w string) bool { return m.only == "" || m.only == w }

// layerSpec names one per-layer metric. Per-layer metrics carry no bound:
// they say where a change of an end-to-end metric came from.
type layerSpec struct {
	Name   string
	Unit   string
	Better string
}

// perLayer lists every per-layer metric a traced run reports, for every
// workload (a count a workload's server family does not have reads 0).
// *_ns are direct probes of a module's public functions, ns per call;
// *_per_op, *_per_req and *_per_s are public counters differenced over
// the traced hardened arm.
var perLayer = func() []layerSpec {
	var out []layerSpec
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, layerSpec{n, unit, better})
		}
	}
	add("ns", "lower",
		"core.guard_scope_ns", "core.copy_1k_ns", "core.rewind_ns", "core.init_destroy_ns",
		"core.enter_p50_ns", "core.exit_p50_ns")
	add("1/op", "lower",
		"core.switches_per_op", "core.monitor_calls_per_op", "core.inits_per_op")
	add("B/op", "lower", "core.bytes_copied_per_op")
	add("1/s", "lower", "core.rewinds_per_s")
	add("ns", "lower",
		"mem.translate_hit_ns", "mem.translate_miss_ns", "mem.read_u64_ns", "mem.read_run_1k_ns",
		"mem.write_run_1k_ns", "mem.lease_new_ns", "mem.lease_valid_ns", "mem.lease_renew_ns", "mem.wrpkru_ns")
	add("1/op", "lower",
		"mem.reads_per_op", "mem.writes_per_op", "mem.lease_grants_per_op", "mem.lease_renewals_per_op",
		"mem.lease_refusals_per_op", "mem.tlb_shootdowns_per_op", "mem.pkru_writes_per_op")
	add("B/op", "lower", "mem.bytes_read_per_op", "mem.bytes_written_per_op")
	add("ns", "lower",
		"tlsf.alloc_free_1k_ns", "galloc.alloc_free_1k_ns", "stack.frame_push_pop_ns",
		"memcache.inline_sdrad_ns", "memcache.inline_vanilla_ns", "memcache.handoff_ns")
	add("count", "higher", "memcache.batch_size_mean")
	add("ns/op", "lower", "memcache.shard_lock_wait_ns_per_op")
	add("ns", "lower", "storage.get_ns", "storage.set_ns", "storage.apply_batch_ns_per_op")
	add("ratio", "higher", "storage.hit_rate")
	add("1/op", "lower", "storage.evictions_per_op", "httpd.switches_per_req", "httpd.pool_resets_per_req")
	add("B", "lower", "httpd.pool_high_water_bytes")
	add("ns", "lower",
		"sched.observe_round_ns", "sched.placement_pick_ns", "policy.admit_ns", "policy.on_rewind_ns",
		"cryptolib.encrypt_1k_ns.native", "cryptolib.encrypt_1k_ns.copy-out",
		"cryptolib.encrypt_1k_ns.copy-both", "cryptolib.encrypt_1k_ns.shared",
		"cryptolib.verify_ns", "cryptolib.verify_rewind_ns",
		"cluster.ring_primary_ns", "telemetry.hist_observe_ns", "telemetry.flight_record_ns")
	add("us", "lower", "client.lat_p99_us")
	add("%", "lower", "trace_overhead_pct")
	add("ns", "lower", "env.calib_ns")
	return out
}()
