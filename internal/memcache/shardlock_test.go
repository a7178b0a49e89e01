package memcache

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// keysOnShard returns n distinct keys that all map to shard si.
func keysOnShard(st *Storage, si, n int) [][]byte {
	var keys [][]byte
	for i := 0; len(keys) < n; i++ {
		k := []byte(fmt.Sprintf("lock-%05d", i))
		if st.ShardFor(k) == si {
			keys = append(keys, k)
		}
	}
	return keys
}

// awaitContended waits until shard si has counted n contended
// acquisitions: the waiter is then past its first TryLock, clock running.
func awaitContended(t *testing.T, st *Storage, si int, n int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); st.ContentionStats()[si].Contended < n; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("shard %d: %d contended acquisitions, want %d", si, st.ContentionStats()[si].Contended, n)
		}
	}
}

// TestShardLockHammer mixes every hot-path acquisition on the keys of one
// shard from several goroutines. Each writer stores values of its own
// length and byte, so a torn read shows; a batch that deletes a key stores
// it again under the same acquisition, so every key stays present and the
// final item count is exact.
func TestShardLockHammer(t *testing.T) {
	const (
		goroutines = 4
		rounds     = 300
		si         = 1
	)
	st, cpu := newShardedStorage(t, 10, 4, 4<<20)
	keys := keysOnShard(st, si, 24)
	valueOf := func(g int) []byte { return bytes.Repeat([]byte{byte('a' + g)}, 100+g) }
	for _, k := range keys {
		if err := st.Set(cpu, k, valueOf(0), 0); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		c := cpu.AddressSpace().NewCPU()
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			value := valueOf(g)
			entry := make([]byte, 512)
			for r := 0; r < rounds; r++ {
				a, b := keys[(r+g)%len(keys)], keys[(r*7+g+1)%len(keys)]
				if err := st.Set(c, a, value, 0); err != nil {
					t.Error(err)
					return
				}
				// The value is the rendered entry between its header
				// line and the trailing CRLF.
				var dst []byte
				n := st.RenderGet(c, b, entry, false)
				if n > 0 && n <= len(entry) {
					dst = entry[bytes.Index(entry, crlfBytes)+2 : n-2]
				}
				if len(dst) < 100 || len(dst) != 100+int(dst[0]-'a') || bytes.Count(dst, dst[:1]) != len(dst) {
					t.Errorf("get of %s: entry length %d, torn or missing value %q", b, n, dst)
					return
				}
				if err := st.ApplyShardBatch(c, si, []BatchOp{
					{Key: a, Value: value},
					{Delete: true, Key: b},
					{Key: b, Value: value},
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := st.AuditShards(cpu); err != nil {
		t.Fatal(err)
	}
	if got := st.ShardStats()[si].Items; got != len(keys) {
		t.Errorf("items on shard %d = %d, want %d", si, got, len(keys))
	}
	sc := st.ContentionStats()[si]
	if want := int64(goroutines * rounds * 3); sc.BatchOps != want {
		t.Errorf("BatchOps = %d, want %d", sc.BatchOps, want)
	}
	if sc.Parked > sc.Contended || (sc.Contended == 0) != (sc.WaitNs == 0) {
		t.Errorf("inconsistent contention counters: %+v", sc)
	}
}

// TestShardLockParksPastBudget holds a shard for far longer than the spin
// budget: the waiter must fall back to the parking Lock, acquire once the
// holder lets go, and account the whole wait.
func TestShardLockParksPastBudget(t *testing.T) {
	const hold = 5 * time.Millisecond
	st, cpu := newShardedStorage(t, 10, 4, 4<<20)
	key := []byte("held")
	if err := st.Set(cpu, key, []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	si := st.ShardFor(key)
	sh := st.shards[si]

	sh.mu.Lock()
	got := make(chan bool)
	c := cpu.AddressSpace().NewCPU()
	go func() {
		_, _, ok := st.Get(c, key)
		got <- ok
	}()
	awaitContended(t, st, si, 1)
	time.Sleep(hold) // the hold itself, not a wait for the waiter
	sh.mu.Unlock()
	if !<-got {
		t.Fatal("waiter's get missed")
	}
	sc := st.ContentionStats()[si]
	if sc.Contended != 1 || sc.Parked != 1 {
		t.Errorf("Contended = %d, Parked = %d, want 1 and 1", sc.Contended, sc.Parked)
	}
	if sc.WaitNs < hold.Nanoseconds() {
		t.Errorf("WaitNs = %d, want at least the %v hold", sc.WaitNs, hold)
	}
}

// TestShardLockSpinCoversShortHolds collides a stream of gets with holds
// of a few hundred nanoseconds, the length of a critical section: the
// spin must absorb nearly all of them.
func TestShardLockSpinCoversShortHolds(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("a short hold can only end under a spinning waiter on a second P")
	}
	st, cpu := newShardedStorage(t, 10, 4, 4<<20)
	key := []byte("busy")
	if err := st.Set(cpu, key, []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	si := st.ShardFor(key)
	sh := st.shards[si]

	var stop atomic.Bool
	done := make(chan struct{})
	go func() { // the holder: ~200 ns locked, ~200 ns not
		defer close(done)
		for !stop.Load() {
			sh.mu.Lock()
			for t0 := time.Now(); time.Since(t0) < 200*time.Nanosecond; {
			}
			sh.mu.Unlock()
			for t0 := time.Now(); time.Since(t0) < 200*time.Nanosecond; {
			}
		}
	}()
	// Enough collisions that a burst of parks, while something else on the
	// box has the holder's CPU, stays a small share of them.
	const want = 2000
	for deadline := time.Now().Add(10 * time.Second); st.ContentionStats()[si].Contended < want; {
		if _, _, ok := st.Get(cpu, key); !ok {
			t.Error("get missed")
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("only %d collisions in 10 s", st.ContentionStats()[si].Contended)
			break
		}
	}
	stop.Store(true)
	<-done
	sc := st.ContentionStats()[si]
	// A holder the OS deschedules mid-hold is a legitimate park; they are
	// rare next to the collisions the spin rides out.
	t.Logf("%d of %d contended acquisitions parked", sc.Parked, sc.Contended)
	if sc.Parked*10 > sc.Contended {
		t.Errorf("Parked = %d of %d contended acquisitions: the spin is not covering short holds", sc.Parked, sc.Contended)
	}
}

// TestShardLockSingleProcParksWithoutSpinning: with one P the holder
// cannot run while a waiter spins, so a Storage built there has no spin
// budget and every contended acquisition goes straight to the park.
func TestShardLockSingleProcParksWithoutSpinning(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	st, cpu := newShardedStorage(t, 10, 4, 4<<20)
	key := []byte("uni")
	if err := st.Set(cpu, key, []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	si := st.ShardFor(key)
	sh := st.shards[si]
	if sh.spinRounds != 0 {
		t.Fatalf("spin budget on one P = %d rounds, want none", sh.spinRounds)
	}
	c := cpu.AddressSpace().NewCPU()
	const collisions = 20
	for i := int64(1); i <= collisions; i++ {
		sh.mu.Lock()
		got := make(chan bool)
		go func() {
			_, _, ok := st.Get(c, key)
			got <- ok
		}()
		awaitContended(t, st, si, i)
		sh.mu.Unlock() // a hold as short as the scheduler allows
		if !<-got {
			t.Fatal("waiter's get missed")
		}
	}
	if sc := st.ContentionStats()[si]; sc.Contended != collisions || sc.Parked != collisions {
		t.Errorf("Contended = %d, Parked = %d, want %d and %d", sc.Contended, sc.Parked, collisions, collisions)
	}
}

// TestShardLockCountersExposed: with a recorder attached, a collision on
// a serving worker shows in the per-shard counter families.
func TestShardLockCountersExposed(t *testing.T) {
	s, rec := startTelServer(t, VariantVanilla, 1)
	conn := s.NewConn()
	mustDo(t, conn, FormatSet("held", []byte("v"), 0))
	st := s.Storage()
	si := st.ShardFor([]byte("held"))
	sh := st.shards[si]

	sh.mu.Lock()
	got := make(chan error)
	go func() {
		_, _, err := conn.Do(FormatGet("held"))
		got <- err
	}()
	awaitContended(t, st, si, 1)
	time.Sleep(time.Millisecond) // hold past the spin budget
	sh.mu.Unlock()
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := rec.Registry().WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{"sdrad_memcache_shard_lock_contended_total", "sdrad_memcache_shard_lock_parked_total"} {
		want := fmt.Sprintf("%s{shard=\"%d\"} 1\n", family, si)
		if !strings.Contains(out.String(), want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
}
