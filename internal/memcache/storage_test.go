package memcache

import (
	"errors"
	"fmt"
	"testing"

	"sdrad/internal/mem"
)

// newStorage builds a single-shard Storage over a fixed arena (the LRU
// ordering tests need one global LRU).
func newStorage(t testing.TB, hashPower int, arenaBytes uint64) (*Storage, *mem.CPU) {
	return newShardedStorage(t, hashPower, 1, arenaBytes)
}

// newShardedStorage builds a Storage with an explicit shard count. Its
// arena bounds are not registered, so every access is a checked one.
func newShardedStorage(t testing.TB, hashPower, shards int, arenaBytes uint64) (*Storage, *mem.CPU) {
	t.Helper()
	return buildStorage(t, hashPower, shards, arenaBytes, false)
}

// newLeasedStorage builds a Storage the way the servers do: the arena's
// bounds registered, so every operation runs on the span-lease window and
// the critical sections are as short as they are in service.
func newLeasedStorage(t testing.TB, hashPower, shards int, arenaBytes uint64) (*Storage, *mem.CPU) {
	t.Helper()
	return buildStorage(t, hashPower, shards, arenaBytes, true)
}

func buildStorage(t testing.TB, hashPower, shards int, arenaBytes uint64, leased bool) (*Storage, *mem.CPU) {
	t.Helper()
	as := mem.NewAddressSpace()
	cpu := as.NewCPU()
	base, err := as.MapAnon(int(arenaBytes), mem.ProtRW, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStorage(cpu, hashPower, shards, newBumpArena(base, arenaBytes).alloc)
	if err != nil {
		t.Fatal(err)
	}
	if leased {
		st.SetArenaBounds(base, arenaBytes)
	}
	return st, cpu
}

func TestStorageBasicOps(t *testing.T) {
	st, cpu := newStorage(t, 8, 1<<20)
	if err := st.Set(cpu, []byte("k"), []byte("v"), 3); err != nil {
		t.Fatal(err)
	}
	v, flags, ok := st.Get(cpu, []byte("k"))
	if !ok || string(v) != "v" || flags != 3 {
		t.Fatalf("get = %q %d %v", v, flags, ok)
	}
	if _, _, ok := st.Get(cpu, []byte("miss")); ok {
		t.Fatal("phantom hit")
	}
	if !st.Delete(cpu, []byte("k")) {
		t.Fatal("delete failed")
	}
	if st.Delete(cpu, []byte("k")) {
		t.Fatal("double delete succeeded")
	}
	stats := st.Stats()
	if stats.Items != 0 || stats.Sets != 1 || stats.Gets != 2 || stats.Hits != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestStorageHashCollisions(t *testing.T) {
	// Tiny table: every bucket collides heavily; chains must stay intact
	// through interleaved inserts and deletes.
	st, cpu := newStorage(t, 4, 4<<20)
	const n = 500
	for i := 0; i < n; i++ {
		if err := st.Set(cpu, []byte(fmt.Sprintf("key-%03d", i)), []byte(fmt.Sprintf("val-%03d", i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	// Delete every third key.
	for i := 0; i < n; i += 3 {
		if !st.Delete(cpu, []byte(fmt.Sprintf("key-%03d", i))) {
			t.Fatalf("delete %d failed", i)
		}
	}
	for i := 0; i < n; i++ {
		v, _, ok := st.Get(cpu, []byte(fmt.Sprintf("key-%03d", i)))
		if i%3 == 0 {
			if ok {
				t.Fatalf("deleted key %d still present", i)
			}
			continue
		}
		if !ok || string(v) != fmt.Sprintf("val-%03d", i) {
			t.Fatalf("key %d = %q %v", i, v, ok)
		}
	}
}

func TestStorageLRUEvictionOrder(t *testing.T) {
	// One slab class, tight memory: eviction must pick the least
	// recently used item of the class.
	st, cpu := newStorage(t, 8, 300*1024)
	val := make([]byte, 900) // all items land in one class
	var stored []string
	for i := 0; ; i++ {
		key := fmt.Sprintf("k-%04d", i)
		err := st.Set(cpu, []byte(key), val, 0)
		if err != nil {
			t.Fatal(err)
		}
		stored = append(stored, key)
		if st.Stats().Evictions > 0 {
			break
		}
		if i > 1000 {
			t.Fatal("no eviction under memory pressure")
		}
	}
	// The first-stored (least recently used) key is the evicted one.
	if _, _, ok := st.Get(cpu, []byte(stored[0])); ok {
		t.Error("LRU victim survived")
	}
	if _, _, ok := st.Get(cpu, []byte(stored[len(stored)-1])); !ok {
		t.Error("most recent item evicted")
	}
}

func TestStorageLRUBumpOnGet(t *testing.T) {
	st, cpu := newStorage(t, 8, 300*1024)
	val := make([]byte, 900)
	// Fill to just below eviction.
	var keys []string
	for i := 0; ; i++ {
		key := fmt.Sprintf("k-%04d", i)
		if err := st.Set(cpu, []byte(key), val, 0); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
		if st.Stats().Evictions > 0 {
			t.Fatal("evicted during fill phase")
		}
		st2 := st.Stats()
		if st2.Bytes > 180*1024 {
			break
		}
	}
	// Touch the oldest key, then insert until eviction: the bumped key
	// must survive, the second-oldest goes.
	if _, _, ok := st.Get(cpu, []byte(keys[0])); !ok {
		t.Fatal("oldest key missing before bump test")
	}
	for i := 0; st.Stats().Evictions == 0; i++ {
		if err := st.Set(cpu, []byte(fmt.Sprintf("new-%04d", i)), val, 0); err != nil {
			t.Fatal(err)
		}
		if i > 1000 {
			t.Fatal("no eviction")
		}
	}
	if _, _, ok := st.Get(cpu, []byte(keys[0])); !ok {
		t.Error("LRU-bumped key was evicted")
	}
	if _, _, ok := st.Get(cpu, []byte(keys[1])); ok {
		t.Error("true LRU victim survived")
	}
}

func TestStorageKeyLimits(t *testing.T) {
	st, cpu := newStorage(t, 8, 1<<20)
	long := make([]byte, MaxKeyLen+1)
	for i := range long {
		long[i] = 'k'
	}
	if err := st.Set(cpu, long, []byte("v"), 0); !errors.Is(err, ErrKeyTooLong) {
		t.Errorf("long key err = %v", err)
	}
	if err := st.Set(cpu, long[:MaxKeyLen], []byte("v"), 0); err != nil {
		t.Errorf("max key err = %v", err)
	}
	// Value too large for any class.
	huge := make([]byte, slabPageSize+1)
	if err := st.Set(cpu, []byte("h"), huge, 0); !errors.Is(err, ErrValueTooLarge) {
		t.Errorf("huge value err = %v", err)
	}
}

func TestStorageOverwriteReleasesOldChunk(t *testing.T) {
	st, cpu := newStorage(t, 8, 1<<20)
	// Overwrite the same key many times with same-class values: chunk
	// count must not grow (old chunks recycled via the free list).
	for i := 0; i < 500; i++ {
		if err := st.Set(cpu, []byte("k"), []byte(fmt.Sprintf("value-%d", i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	stats := st.Stats()
	if stats.Items != 1 {
		t.Errorf("items = %d", stats.Items)
	}
	if stats.Evictions != 0 {
		t.Errorf("evictions = %d during overwrite churn", stats.Evictions)
	}
}

func TestStorageConditionalOps(t *testing.T) {
	st, cpu := newStorage(t, 8, 1<<20)
	if out, err := st.Add(cpu, []byte("a"), []byte("1"), 0); err != nil || out != Stored {
		t.Fatalf("add = %v %v", out, err)
	}
	if out, _ := st.Add(cpu, []byte("a"), []byte("2"), 0); out != NotStored {
		t.Fatalf("re-add = %v", out)
	}
	if out, _ := st.Replace(cpu, []byte("b"), []byte("x"), 0); out != NotStored {
		t.Fatalf("replace missing = %v", out)
	}
	if out, _ := st.Concat(cpu, []byte("a"), []byte("+"), false); out != Stored {
		t.Fatalf("append = %v", out)
	}
	v, _, _ := st.Get(cpu, []byte("a"))
	if string(v) != "1+" {
		t.Fatalf("after append = %q", v)
	}
	_, _, casid, ok := st.GetWithCAS(cpu, []byte("a"))
	if !ok {
		t.Fatal("gets miss")
	}
	if out, _ := st.CAS(cpu, []byte("a"), []byte("new"), 0, casid); out != Stored {
		t.Fatalf("cas = %v", out)
	}
	if out, _ := st.CAS(cpu, []byte("a"), []byte("newer"), 0, casid); out != CASMismatch {
		t.Fatalf("stale cas = %v", out)
	}
	if out, _ := st.CAS(cpu, []byte("zz"), []byte("x"), 0, 1); out != NotFoundOutcome {
		t.Fatalf("cas missing = %v", out)
	}
	if !st.Touch(cpu, []byte("a")) || st.Touch(cpu, []byte("zz")) {
		t.Error("touch semantics broken")
	}
	st.FlushAll(cpu)
	if st.Stats().Items != 0 {
		t.Error("flush left items")
	}
}

func TestNewStorageValidation(t *testing.T) {
	as := mem.NewAddressSpace()
	cpu := as.NewCPU()
	base, _ := as.MapAnon(1<<20, mem.ProtRW, 0)
	arena := newBumpArena(base, 1<<20)
	if _, err := NewStorage(cpu, 2, 1, arena.alloc); err == nil {
		t.Error("tiny hash power accepted")
	}
	if _, err := NewStorage(cpu, 30, 1, arena.alloc); err == nil {
		t.Error("huge hash power accepted")
	}
	// Shard count must be a power of two within range.
	if _, err := NewStorage(cpu, 10, 3, arena.alloc); err == nil {
		t.Error("non-power-of-two shard count accepted")
	}
	if _, err := NewStorage(cpu, 10, 0, arena.alloc); err == nil {
		t.Error("zero shard count accepted")
	}
	if _, err := NewStorage(cpu, 10, MaxShards*2, arena.alloc); err == nil {
		t.Error("oversized shard count accepted")
	}
	// Arena too small for the bucket array.
	tiny := newBumpArena(base, 8)
	if _, err := NewStorage(cpu, 10, 1, tiny.alloc); err == nil {
		t.Error("arena exhaustion not reported")
	}
}

func TestShardedStorageDistribution(t *testing.T) {
	// Keys must spread across shards, every op must land on the shard
	// ShardFor names, and the summed stats must equal the global view.
	st, cpu := newShardedStorage(t, 12, 8, 8<<20)
	if st.Shards() != 8 {
		t.Fatalf("shards = %d", st.Shards())
	}
	const n = 2000
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("dist-key-%05d", i))
		if err := st.Set(cpu, key, []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
	}
	per := st.ShardStats()
	occupied, items, sets := 0, 0, 0
	for _, s := range per {
		if s.Items > 0 {
			occupied++
		}
		items += s.Items
		sets += s.Sets
	}
	if occupied < 2 {
		t.Errorf("only %d of 8 shards occupied: hash is not partitioning", occupied)
	}
	tot := st.Stats()
	if items != tot.Items || items != n {
		t.Errorf("shard items sum %d, total %d, want %d", items, tot.Items, n)
	}
	if sets != tot.Sets || sets != n {
		t.Errorf("shard sets sum %d, total %d, want %d", sets, tot.Sets, n)
	}
	// Every key readable back, and its shard's stats move on a get.
	for i := 0; i < n; i += 97 {
		key := []byte(fmt.Sprintf("dist-key-%05d", i))
		si := st.ShardFor(key)
		before := st.ShardStats()[si]
		if _, _, ok := st.Get(cpu, key); !ok {
			t.Fatalf("key %d missing", i)
		}
		after := st.ShardStats()[si]
		if after.Gets != before.Gets+1 || after.Hits != before.Hits+1 {
			t.Fatalf("get of key %d did not land on shard %d", i, si)
		}
	}
}

func TestShardedCASIndependence(t *testing.T) {
	// CAS counters are per shard: a CAS id issued on one shard stays
	// valid regardless of store traffic on the others.
	st, cpu := newShardedStorage(t, 10, 4, 4<<20)
	key := []byte("cas-key")
	if err := st.Set(cpu, key, []byte("v0"), 0); err != nil {
		t.Fatal(err)
	}
	_, _, casid, ok := st.GetWithCAS(cpu, key)
	if !ok {
		t.Fatal("gets miss")
	}
	si := st.ShardFor(key)
	// Hammer the other shards with sets.
	stored := 0
	for i := 0; stored < 200; i++ {
		k := []byte(fmt.Sprintf("other-%05d", i))
		if st.ShardFor(k) == si {
			continue
		}
		if err := st.Set(cpu, k, []byte("x"), 0); err != nil {
			t.Fatal(err)
		}
		stored++
	}
	if out, err := st.CAS(cpu, key, []byte("v1"), 0, casid); err != nil || out != Stored {
		t.Fatalf("cas after cross-shard traffic = %v %v", out, err)
	}
	if out, _ := st.CAS(cpu, key, []byte("v2"), 0, casid); out != CASMismatch {
		t.Fatalf("stale cas = %v", out)
	}
}

func TestShardedFlushAll(t *testing.T) {
	st, cpu := newShardedStorage(t, 10, 4, 4<<20)
	for i := 0; i < 300; i++ {
		if err := st.Set(cpu, []byte(fmt.Sprintf("f-%04d", i)), []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
	}
	st.FlushAll(cpu)
	if got := st.Stats().Items; got != 0 {
		t.Fatalf("items after flush = %d", got)
	}
	for _, s := range st.ShardStats() {
		if s.Items != 0 || s.Bytes != 0 {
			t.Fatalf("shard not flushed: %+v", s)
		}
	}
	// Storage still usable after flush.
	if err := st.Set(cpu, []byte("post"), []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := st.Get(cpu, []byte("post")); !ok {
		t.Fatal("set after flush missing")
	}
}

func TestApplyShardBatch(t *testing.T) {
	st, cpu := newShardedStorage(t, 10, 4, 4<<20)
	// Collect keys that all map to one shard, then apply an ordered batch:
	// set a=1, set b=2, set a=3 (overwrite), delete b.
	var keys [][]byte
	for i := 0; len(keys) < 2; i++ {
		k := []byte(fmt.Sprintf("batch-%04d", i))
		if st.ShardFor(k) == 0 {
			keys = append(keys, k)
		}
	}
	a, b := keys[0], keys[1]
	ops := []BatchOp{
		{Key: a, Value: []byte("1"), Flags: 7},
		{Key: b, Value: []byte("2")},
		{Key: a, Value: []byte("3"), Flags: 9},
		{Delete: true, Key: b},
	}
	if err := st.ApplyShardBatch(cpu, 0, ops); err != nil {
		t.Fatal(err)
	}
	v, flags, ok := st.Get(cpu, a)
	if !ok || string(v) != "3" || flags != 9 {
		t.Fatalf("a = %q %d %v, want later write to win", v, flags, ok)
	}
	if _, _, ok := st.Get(cpu, b); ok {
		t.Fatal("deleted key survived batch")
	}
	// Deleting a missing key inside a batch is a no-op, not an error.
	if err := st.ApplyShardBatch(cpu, 0, []BatchOp{{Delete: true, Key: b}}); err != nil {
		t.Fatal(err)
	}
	if err := st.AuditShards(cpu); err != nil {
		t.Fatalf("shard audit after batch: %v", err)
	}
}

func TestAuditShardsAfterChurn(t *testing.T) {
	st, cpu := newShardedStorage(t, 10, 8, 4<<20)
	for i := 0; i < 1500; i++ {
		k := []byte(fmt.Sprintf("churn-%05d", i%400))
		switch i % 5 {
		case 0, 1, 2:
			if err := st.Set(cpu, k, []byte(fmt.Sprintf("val-%d", i)), 0); err != nil {
				t.Fatal(err)
			}
		case 3:
			st.Get(cpu, k)
		case 4:
			st.Delete(cpu, k)
		}
	}
	if err := st.AuditShards(cpu); err != nil {
		t.Fatalf("shard audit after churn: %v", err)
	}
}

// TestStoreUnlinksWithoutAllocating: replacing or evicting an item finds
// its hash bucket from the hash the operation already computed, or by
// hashing the stored key where it lies; neither copies the key out under
// the shard lock.
func TestStoreUnlinksWithoutAllocating(t *testing.T) {
	for name, build := range map[string]func(testing.TB, int, int, uint64) (*Storage, *mem.CPU){
		"window": newLeasedStorage, "checked": newShardedStorage,
	} {
		t.Run(name, func(t *testing.T) {
			st, cpu := build(t, 8, 1, 1<<20)
			value := make([]byte, 1024)
			keys := make([][]byte, 2000) // twice what the arena holds
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("evict-%05d", i))
			}
			i := 0
			set := func() {
				if err := st.Set(cpu, keys[i%len(keys)], value, 0); err != nil {
					t.Fatal(err)
				}
				i++
			}
			for st.Stats().Evictions == 0 {
				set()
			}
			before := st.Stats().Evictions
			if allocs := testing.AllocsPerRun(len(keys), set); allocs != 0 {
				t.Errorf("a store that evicts allocates %v times", allocs)
			}
			if st.Stats().Evictions-before < len(keys)/2 {
				t.Fatalf("only %d evictions in %d stores", st.Stats().Evictions-before, len(keys))
			}
			i = 0
			if allocs := testing.AllocsPerRun(100, func() { i = 7; set() }); allocs != 0 {
				t.Errorf("a store that overwrites allocates %v times", allocs)
			}
			if err := st.AuditShards(cpu); err != nil {
				t.Fatal(err)
			}
		})
	}
}
