package memcache

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"sdrad/internal/ycsb"
)

// BenchmarkDeferredSetApply times the hardened store path on its own,
// without the ledger: one 1 KiB set per guard scope, parsed inside the
// event domain, queued by reference and applied after Exit. allocs/op is
// the figure to watch — the deferred op itself contributes none.
func BenchmarkDeferredSetApply(b *testing.B) {
	s := startServer(b, VariantSDRaD, 1)
	value := bytes.Repeat([]byte("v"), 1024)
	reqs := make([][]byte, 64)
	for i := range reqs {
		reqs[i] = FormatSet(fmt.Sprintf("key-%02d", i), value, 0)
	}
	if err := s.RunInline("bench", func(newConn func() *Conn, do InlineDo) error {
		conn := newConn()
		for _, req := range reqs { // create the domain, warm the slabs
			if _, _, err := do(conn, req); err != nil {
				return err
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := do(conn, reqs[i%len(reqs)]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStorageHit times a cache hit on its own, without the ledger:
// a RenderGet of a 1 KiB value, the servers' get, on a leased 8-shard
// Storage holding 20,000 items, one goroutine, keys drawn beforehand from
// YCSB's scrambled Zipfian so the draw is not timed. It is the path both
// arms share.
func BenchmarkStorageHit(b *testing.B) {
	const items = 20000
	st, cpu := newLeasedStorage(b, 16, 8, 40<<20)
	value := bytes.Repeat([]byte("v"), 1024)
	keys := make([][]byte, items)
	want := make([]int, items) // each hit's full entry length
	for i := range keys {
		keys[i] = []byte(ycsb.Key(i))
		if err := st.Set(cpu, keys[i], value, 0); err != nil {
			b.Fatal(err)
		}
		want[i] = putEntry(nil, keys[i], value, 0, false, 0)
	}
	if ev := st.Stats().Evictions; ev != 0 {
		b.Fatalf("%d evictions while loading: the arena is too small", ev)
	}
	next := ycsb.ZipfianChooser(items, 0, 1)
	seq := make([]int, 1<<16)
	for i := range seq {
		seq[i] = next()
	}
	entry := make([]byte, 2*len(value))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := seq[i%len(seq)]
		if n := st.RenderGet(cpu, keys[k], entry, false); n != want[k] {
			b.Fatalf("get of %s rendered %d bytes, want %d", keys[k], n, want[k])
		}
	}
}

// BenchmarkPipelineGets16 times the get path end to end on the hardened
// build, without the ledger: a warm DoPipeline of 16 gets of 1 KiB values
// (10,000 items, keys from YCSB's scrambled Zipfian, drawn beforehand)
// through one guard scope — parse, render into the write buffer, deliver
// each reply. It allocates nothing: the events, the results and the
// replies all come from the connection's call record.
func BenchmarkPipelineGets16(b *testing.B) {
	const items, depth = 10000, 16
	s, err := NewServer(Config{Variant: VariantSDRaD, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Stop()
	c := s.NewConn()
	value := bytes.Repeat([]byte("v"), 1024)
	gets := make([][]byte, items)
	sets := make([][]byte, 0, depth)
	for i := range gets {
		gets[i] = FormatGet(ycsb.Key(i))
		if sets = append(sets, FormatSet(ycsb.Key(i), value, 0)); len(sets) == depth || i == items-1 {
			for _, r := range c.DoPipeline(sets) {
				if r.Err != nil || r.Closed {
					b.Fatalf("load: %+v", r)
				}
			}
			sets = sets[:0]
		}
	}
	next := ycsb.ZipfianChooser(items, 0, 1)
	bursts := make([][][]byte, 256)
	for i := range bursts {
		bursts[i] = make([][]byte, depth)
		for j := range bursts[i] {
			bursts[i][j] = gets[next()]
		}
	}
	c.DoPipeline(bursts[0]) // creates the domain slots a burst uses
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		for _, r := range c.DoPipeline(bursts[i%len(bursts)]) {
			if len(r.Resp) < len(value) {
				b.Fatalf("reply %q", r.Resp)
			}
		}
		i++
	}
}

// BenchmarkStorageReplace times a store of a resident key on its own,
// without the ledger: Set of a 1 KiB value over a key already holding
// one, on a leased 8-shard Storage holding 40,000 items, one goroutine,
// keys drawn uniformly beforehand so the draw is not timed. The new item
// needs the old one's class, so the store rewrites its chunk in place;
// both arms end every update here.
func BenchmarkStorageReplace(b *testing.B) {
	const items = 40000
	st, cpu := newLeasedStorage(b, 16, 8, 80<<20)
	value := bytes.Repeat([]byte("v"), 1024)
	keys := make([][]byte, items)
	for i := range keys {
		keys[i] = []byte(ycsb.Key(i))
		if err := st.Set(cpu, keys[i], value, 0); err != nil {
			b.Fatal(err)
		}
	}
	if ev := st.Stats().Evictions; ev != 0 {
		b.Fatalf("%d evictions while loading: the arena is too small", ev)
	}
	rng := rand.New(rand.NewSource(1))
	seq := make([]int, 1<<16)
	for i := range seq {
		seq[i] = rng.Intn(items)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Set(cpu, keys[seq[i%len(seq)]], value, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardLockContended times the shard lock under collision,
// without the ledger: two goroutines on one shard, each alternating a Set
// and a RenderGet of a 1 KiB value, ns/op being wall time per operation
// across both. Two things make it the servers' case and not sync.Mutex's
// best one. The keys span 16 MiB, so a critical section touches cold
// lines and runs ~2 us, as it does over a cache-sized keyspace in
// service (the warm storage.set_ns probe reads 0.9 us). And each
// operation is preceded by a private step (one hash pass over the value,
// ~3 us, standing in for parse and reply assembly): in a bare
// lock-unlock loop the unlocker re-takes the mutex for milliseconds at a
// time, the loop runs serially at full speed, and no wait is measured.
func BenchmarkShardLockContended(b *testing.B) {
	st, cpu := newLeasedStorage(b, 15, 1, 64<<20)
	value := bytes.Repeat([]byte("v"), 1024)
	keys := make([][]byte, 16384)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%08d", i))
		if err := st.Set(cpu, keys[i], value, 0); err != nil {
			b.Fatal(err)
		}
	}
	want := putEntry(nil, keys[0], value, 0, false, 0) // every key is 12 bytes
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		c := cpu.AddressSpace().NewCPU()
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			entry := make([]byte, 2*len(value))
			x, private := uint64(g+1), uint64(0)
			defer func() { benchSink.Add(private) }()
			for i := g; i < b.N; i += 2 {
				private += hashKey(value)
				x = x*6364136223846793005 + 1442695040888963407
				key := keys[int(x>>33)%len(keys)]
				if i/2%2 == 0 {
					if err := st.Set(c, key, value, 0); err != nil {
						b.Error(err)
						return
					}
					continue
				}
				if n := st.RenderGet(c, key, entry, false); n != want {
					b.Errorf("get of %s rendered %d bytes, want %d", key, n, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	b.StopTimer()
	sc := st.ContentionStats()[0]
	b.ReportMetric(float64(sc.Contended)/float64(b.N), "contended/op")
	b.ReportMetric(float64(sc.Parked)/float64(b.N), "parked/op")
	b.ReportMetric(float64(sc.WaitNs)/float64(b.N), "wait-ns/op")
}

// benchSink keeps the benchmark's private step from being optimised away.
var benchSink atomic.Uint64
