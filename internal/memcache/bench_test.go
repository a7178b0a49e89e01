package memcache

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
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

// BenchmarkShardLockContended times the shard lock under collision,
// without the ledger: two goroutines on one shard, each alternating a Set
// and an AppendGet of a 1 KiB value, ns/op being wall time per operation
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
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		c := cpu.AddressSpace().NewCPU()
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var dst []byte
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
				var ok bool
				if dst, _, _, ok = st.AppendGet(c, key, dst[:0], false); !ok || len(dst) != len(value) {
					b.Errorf("get of %s: ok=%v len=%d", key, ok, len(dst))
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
