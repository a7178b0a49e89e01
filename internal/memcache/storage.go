// Package memcache is a faithful architectural port of Memcached used as
// the paper's first case study (§V-A): an in-memory key-value cache with
// a hash table, slab allocation, per-class LRU eviction, an event-driven
// request state machine (drive_machine), and worker threads.
//
// All cache state — buckets, slab pages, items, connection buffers —
// lives in the simulated address space, so a memory-safety bug in request
// handling corrupts (and faults in) simulated memory exactly as the real
// CVE-2011-4971 does in process memory.
//
// Three build variants reproduce the paper's comparison (Figure 4):
//
//   - VariantVanilla: the baseline, backed by a glibc-like first-fit
//     allocator (internal/galloc);
//   - VariantTLSF: identical but allocating from a TLSF heap, isolating
//     the cost of the allocator swap;
//   - VariantSDRaD: the hardened build, where every client event is
//     handled in a nested isolated domain on a deep copy of the
//     connection buffer, store operations are deferred to normal domain
//     exit, and a detected attack discards the domain and closes only
//     the offending connection.
package memcache

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sdrad/internal/mem"
	"sdrad/internal/telemetry"
)

// Item header layout (all fields little-endian), followed by key bytes
// then value bytes:
//
//	+0:  next item in hash chain (Addr)
//	+8:  LRU next (Addr)
//	+16: LRU prev (Addr)
//	+24: key length
//	+32: value length
//	+40: user flags (low 32 bits) and itemActive (memcached's it_flags)
//	+48: slab class index
//	+56: CAS unique id
//	+64: key bytes ... value bytes
//
// An item fits its class's chunk (itemHeader+klen+vlen <= chunkSize), so
// a store of a resident key whose new item needs the same class rewrites
// +32, +40, +56 and the value bytes in place; the links, the key, the
// class and every other chunk stay as they were (storeLocked).
const (
	itemOffNext   = 0
	itemOffLRUN   = 8
	itemOffLRUP   = 16
	itemOffKeyLen = 24
	itemOffValLen = 32
	itemOffFlags  = 40
	itemOffClass  = 48
	itemOffCAS    = 56
	itemHeader    = 64
)

// itemActive is the second-chance bit above the 32 user-flag bits of the
// +40 word (memcached's ITEM_ACTIVE): a hit sets it, and eviction, finding
// it set on the LRU tail, clears it and relinks the item at the head
// instead of evicting it. Readers of the user flags truncate to uint32;
// a store writes the whole word, so a new item starts inactive and an
// item rewritten in place starts active, a use like a hit.
const itemActive = uint64(1) << 32

// Slab geometry: chunk classes grow by factor 1.25 from 96 bytes, pages
// are 64 KiB, mirroring Memcached's defaults.
const (
	slabPageSize   = 64 * 1024
	smallestChunk  = 96
	growthFactorPc = 125 // percent
)

// Storage errors.
var (
	ErrValueTooLarge = errors.New("memcache: object too large for any slab class")
	ErrStoreFull     = errors.New("memcache: out of memory storing item")
	ErrKeyTooLong    = errors.New("memcache: key too long")
)

// MaxKeyLen matches Memcached's 250-byte key limit.
const MaxKeyLen = 250

// MaxShards bounds the shard count (and with it the per-shard bucket
// array fragmentation).
const MaxShards = 256

// slabClass is one chunk-size class with its free list and LRU.
type slabClass struct {
	chunkSize uint64
	freeHead  mem.Addr // chain through first word of free chunks
	lruHead   mem.Addr // most recently used
	lruTail   mem.Addr // least recently used
	chunks    int
	used      int
}

// pageAlloc obtains backing pages for slabs and the bucket array, from
// the cache's pre-sized memory arena (Memcached's -m limit). The variant
// wiring decides where that arena lives: a plain mapping for the
// baselines, an SDRaD data domain for the hardened build.
type pageAlloc func(size uint64) (mem.Addr, error)

// shard is one lock-striped slice of the cache: its own hash chains,
// slab classes, LRUs, CAS counter, and statistics, guarded by its own
// mutex. Keys hash-partition across shards, so two workers mutating
// different shards never contend — the sharded analog of Memcached's
// item_locks stripes replacing the old global cache_lock.
type shard struct {
	mu sync.Mutex

	buckets  mem.Addr
	nbuckets uint64
	classes  []slabClass
	alloc    pageAlloc

	// casCounter issues CAS unique ids (guarded by mu). Per-shard
	// counters stay correct because a key always maps to one shard, so
	// the per-key CAS sequence remains strictly monotonic.
	casCounter uint64

	// Live statistics (guarded by mu).
	items     int
	bytes     uint64
	evictions int
	sets      int
	gets      int
	hits      int

	// occ, when set, mirrors items into a telemetry gauge (shard
	// occupancy exposition).
	occ *telemetry.Gauge

	// spinRounds is the spin budget of a contended acquisition (see
	// lockContended): lockSpinRounds, or 0 on a single-P process, where
	// the holder cannot run while the waiter spins.
	spinRounds int

	// Contention accounting (atomic — ContentionStats reads it without
	// the lock): acquisitions of mu that failed their first TryLock, how
	// many of those exhausted the spin budget and parked, the nanoseconds
	// they waited (spin plus park), and ops applied through the batch
	// path. The telemetry counters, when set, mirror them.
	contended atomic.Int64
	parked    atomic.Int64
	waitNs    atomic.Int64
	batchOps  atomic.Int64
	tc        shardCounters
}

// shardCounters are the telemetry mirrors of one shard's contention
// counters; the zero value mirrors nothing.
type shardCounters struct {
	contended, parked, waitNs, batchOps *telemetry.Counter
}

// noteOccupancy publishes the shard's live item count to its gauge.
func (sh *shard) noteOccupancy() {
	if sh.occ != nil {
		sh.occ.Set(int64(sh.items))
	}
}

// Storage is the shared cache state: hash table + slabs + LRU, split
// into hash-partitioned lock-striped shards. In the SDRaD variant the
// shard mutexes conceptually live in the shared storage data domain
// (paper §V-A); the Go mutexes here are that domain's lock words.
type Storage struct {
	shards []*shard
	// shardMask is len(shards)-1; the shard count is a power of two so
	// selection is a mask of the high hash bits (the bucket index uses
	// the low bits — disjoint bit ranges keep the two choices
	// independent).
	shardMask uint64

	// Arena bounds for span-lease acceleration (SetArenaBounds). Zero
	// arenaLen keeps every operation on the checked accessors.
	arenaBase mem.Addr
	arenaLen  int
}

// NewStorage builds the cache state: bucket arrays are allocated
// immediately (one per shard); slab pages are claimed on demand. shards
// must be a power of two in [1, MaxShards]; each shard receives an
// equal slice of the 1<<hashPower total buckets.
func NewStorage(c *mem.CPU, hashPower, shards int, alloc pageAlloc) (*Storage, error) {
	if hashPower < 4 || hashPower > 26 {
		return nil, fmt.Errorf("memcache: hash power %d out of range", hashPower)
	}
	if shards < 1 || shards > MaxShards || shards&(shards-1) != 0 {
		return nil, fmt.Errorf("memcache: shard count %d not a power of two in [1, %d]", shards, MaxShards)
	}
	total := uint64(1) << uint(hashPower)
	per := total / uint64(shards)
	if per == 0 {
		per = 1
	}
	st := &Storage{shardMask: uint64(shards) - 1}
	spin := 0
	if runtime.GOMAXPROCS(0) > 1 {
		spin = lockSpinRounds
	}
	for i := 0; i < shards; i++ {
		sh := &shard{nbuckets: per, alloc: alloc, spinRounds: spin}
		b, err := alloc(per * 8)
		if err != nil {
			return nil, fmt.Errorf("memcache: allocating hash table shard %d: %w", i, err)
		}
		sh.buckets = b
		c.Memset(b, 0, int(per*8))
		for sz := uint64(smallestChunk); sz <= slabPageSize; sz = sz * growthFactorPc / 100 {
			sz = (sz + 7) &^ 7
			sh.classes = append(sh.classes, slabClass{chunkSize: sz})
		}
		st.shards = append(st.shards, sh)
	}
	return st, nil
}

// SetArenaBounds registers the contiguous memory arena all cache state
// lives in, enabling the span-lease fast path: each exported operation
// verifies (or O(1)-renews) one lease over the whole arena and then runs
// its chain walks and header accesses on native memory. Without bounds
// every access stays on the checked per-access accessors.
func (st *Storage) SetArenaBounds(base mem.Addr, size uint64) {
	st.arenaBase = base
	st.arenaLen = int(size)
}

// Shards returns the shard count.
func (st *Storage) Shards() int { return len(st.shards) }

// setContentionCounters attaches telemetry counters mirroring shard
// si's contention counters.
func (st *Storage) setContentionCounters(si int, tc shardCounters) {
	sh := st.shards[si]
	sh.mu.Lock()
	sh.tc = tc
	sh.mu.Unlock()
}

// setOccupancyGauge attaches a telemetry gauge mirroring shard si's
// live item count.
func (st *Storage) setOccupancyGauge(si int, g *telemetry.Gauge) {
	sh := st.shards[si]
	sh.mu.Lock()
	sh.occ = g
	sh.noteOccupancy()
	sh.mu.Unlock()
}

// ShardFor returns the shard index key maps to: the high 32 hash bits
// select the shard, the low bits (used by bucketAddr) select the bucket
// within it — disjoint bit ranges keep the two choices independent.
func (st *Storage) ShardFor(key []byte) int {
	return st.shardOf(hashKey(key))
}

// shardOf is ShardFor for a key already hashed.
func (st *Storage) shardOf(h uint64) int {
	return int((h >> 32) & st.shardMask)
}

// lockShard returns the shard hash h maps to, locked.
func (st *Storage) lockShard(h uint64) *shard {
	sh := st.shards[st.shardOf(h)]
	sh.lockMeasured()
	return sh
}

// lockMeasured is the one hot-path acquisition of the shard lock; the
// uncontended TryLock costs the same as a plain Lock.
func (sh *shard) lockMeasured() {
	if !sh.mu.TryLock() {
		sh.lockContended()
	}
}

// The spin budget of a contended acquisition: lockSpinRounds rounds of
// lockSpinPause empty calls and one TryLock, ~30 ns a round, ~6 µs in
// all. That is seven warm critical sections (the benchmark's
// storage.set_ns probe reads ~0.9 µs), or three as they run in service
// over a keyspace the CPU caches do not hold (~2 µs), or one worker's
// share of a deferred batch: every wait a running holder can cause. A
// collision that parks instead waits ~30 µs in service, and at 100
// rounds 6% of collisions still park, at 200 1%, at 400 0.4%
// (EXPERIMENTS E17c). Past the budget the holder is not running, and
// spinning on would only keep a CPU from it. The budget is a constant
// because both sides of the comparison belong to this code and the
// kernel, not to a deployment.
const (
	lockSpinRounds = 200
	lockSpinPause  = 20
)

// lockContended acquires a lock whose first TryLock failed: it spins for
// the budget above and only then parks in sync.Mutex.Lock, so fairness
// and starvation mode stay the mutex's own. The wait clock starts here,
// at the first failed TryLock, and covers spin plus park.
func (sh *shard) lockContended() {
	t0 := time.Now()
	sh.contended.Add(1)
	parked := !sh.spinLock()
	if parked {
		sh.parked.Add(1)
		sh.mu.Lock()
	}
	w := time.Since(t0).Nanoseconds()
	sh.waitNs.Add(w)
	if tc := sh.tc; tc.waitNs != nil {
		tc.contended.Add(1)
		if parked {
			tc.parked.Add(1)
		}
		tc.waitNs.Add(w)
	}
}

// spinLock retries TryLock for the shard's spin budget, reporting whether
// it got the lock.
func (sh *shard) spinLock() bool {
	for r := 0; r < sh.spinRounds; r++ {
		for i := 0; i < lockSpinPause; i++ {
			spinPause()
		}
		if sh.mu.TryLock() {
			return true
		}
	}
	return false
}

// spinPause is one beat of the spin: a call the compiler may not remove,
// standing in for the PAUSE instruction Go does not expose.
//
//go:noinline
func spinPause() {}

// noteBatchOps accounts n batched ops to the shard.
func (sh *shard) noteBatchOps(n int64) {
	sh.batchOps.Add(n)
	if sh.tc.batchOps != nil {
		sh.tc.batchOps.Add(n)
	}
}

// classFor returns the index of the smallest class fitting need bytes.
func (sh *shard) classFor(need uint64) (int, error) {
	for i := range sh.classes {
		if sh.classes[i].chunkSize >= need {
			return i, nil
		}
	}
	return 0, ErrValueTooLarge
}

// hashKey is FNV-1a, as good as Memcached's default for this purpose.
// Every operation hashes its key once, before it takes the shard lock,
// and hands the hash to whatever it calls under the lock.
func hashKey(key []byte) uint64 { return hashMore(fnvOffset, key) }

const fnvOffset uint64 = 14695981039346656037

// hashMore extends the FNV-1a hash h over p.
func hashMore(h uint64, p []byte) uint64 {
	for _, b := range p {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

func (sh *shard) bucketAddr(h uint64) mem.Addr {
	return sh.buckets + mem.Addr((h%sh.nbuckets)*8)
}

// grabChunk returns a free chunk of class ci, claiming a new slab page or
// evicting the class LRU tail when necessary.
func (sh *shard) grabChunk(v sview, ci int) (mem.Addr, error) {
	cl := &sh.classes[ci]
	if cl.freeHead == 0 {
		if page, err := sh.alloc(slabPageSize); err == nil {
			// Carve the page into chunks, threading the free list.
			n := slabPageSize / cl.chunkSize
			for i := uint64(0); i < n; i++ {
				chunk := page + mem.Addr(i*cl.chunkSize)
				v.putAddr(chunk, cl.freeHead)
				cl.freeHead = chunk
			}
			cl.chunks += int(n)
		} else {
			// No memory: evict the least recently used inactive item
			// of this class (Memcached's second chance). An active tail
			// spends its bit on one move to the head; every bit spent
			// is one an earlier hit set, and a lap of the LRU ends at
			// an item relinked with its bit clear.
			if cl.lruTail == 0 {
				return 0, ErrStoreFull
			}
			victim := cl.lruTail
			for f := v.u64(victim + itemOffFlags); f&itemActive != 0; f = v.u64(victim + itemOffFlags) {
				v.putU64(victim+itemOffFlags, f&^itemActive)
				sh.lruUnlink(v, victim)
				sh.lruPush(v, victim)
				victim = cl.lruTail
			}
			sh.unlinkItem(v, victim, itemHash(v, victim))
			sh.evictions++
		}
	}
	chunk := cl.freeHead
	cl.freeHead = v.addr(chunk)
	cl.used++
	return chunk, nil
}

// releaseChunk returns a chunk to its class free list.
func (sh *shard) releaseChunk(v sview, ci int, chunk mem.Addr) {
	cl := &sh.classes[ci]
	v.putAddr(chunk, cl.freeHead)
	cl.freeHead = chunk
	cl.used--
}

// itemHash hashes an item's stored key where it lies. Eviction and flush
// unlink items no caller named; they must not copy the key out to find
// its bucket.
func itemHash(v sview, it mem.Addr) uint64 {
	n := int(v.u64(it + itemOffKeyLen))
	addr := it + itemHeader
	if o, ok := v.off(addr, n); ok {
		return hashKey(v.w[o : o+uint64(n)])
	}
	h := fnvOffset
	for n > 0 {
		run := v.c.ReadRun(addr, n)
		h = hashMore(h, run)
		n -= len(run)
		addr += mem.Addr(len(run))
	}
	return h
}

// itemKeyEqual reports whether the item's key equals key, comparing in
// place — the hash-chain walk allocates nothing.
func itemKeyEqual(v sview, it mem.Addr, key []byte) bool {
	if v.u64(it+itemOffKeyLen) != uint64(len(key)) {
		return false
	}
	addr := it + itemHeader
	if o, ok := v.off(addr, len(key)); ok {
		return bytes.Equal(v.w[o:o+uint64(len(key))], key)
	}
	for len(key) > 0 {
		run := v.c.ReadRun(addr, len(key))
		if string(run) != string(key[:len(run)]) {
			return false
		}
		key = key[len(run):]
		addr += mem.Addr(len(run))
	}
	return true
}

// itemValueAddr returns the address and length of an item's value.
func itemValueAddr(v sview, it mem.Addr) (mem.Addr, int) {
	klen := v.u64(it + itemOffKeyLen)
	vlen := v.u64(it + itemOffValLen)
	return it + itemHeader + mem.Addr(klen), int(vlen)
}

// lruBump records a hit the way memcached's do_item_bump does: it marks
// the item active and leaves the LRU alone, so a hit writes at most one
// word, in its own header, and a repeat hit writes nothing. The move to
// the head waits until the item reaches the tail (grabChunk).
func (sh *shard) lruBump(v sview, it mem.Addr) {
	if f := v.u64(it + itemOffFlags); f&itemActive == 0 {
		v.putU64(it+itemOffFlags, f|itemActive)
	}
}

func (sh *shard) lruPush(v sview, it mem.Addr) {
	ci := int(v.u64(it + itemOffClass))
	cl := &sh.classes[ci]
	v.putAddr(it+itemOffLRUN, cl.lruHead)
	v.putAddr(it+itemOffLRUP, 0)
	if cl.lruHead != 0 {
		v.putAddr(cl.lruHead+itemOffLRUP, it)
	}
	cl.lruHead = it
	if cl.lruTail == 0 {
		cl.lruTail = it
	}
}

func (sh *shard) lruUnlink(v sview, it mem.Addr) {
	ci := int(v.u64(it + itemOffClass))
	cl := &sh.classes[ci]
	next := v.addr(it + itemOffLRUN)
	prev := v.addr(it + itemOffLRUP)
	if prev != 0 {
		v.putAddr(prev+itemOffLRUN, next)
	} else {
		cl.lruHead = next
	}
	if next != 0 {
		v.putAddr(next+itemOffLRUP, prev)
	} else {
		cl.lruTail = prev
	}
}

// hashUnlink removes an item, whose key hashes to h, from its hash chain.
func (sh *shard) hashUnlink(v sview, it mem.Addr, h uint64) {
	ba := sh.bucketAddr(h)
	cur := v.addr(ba)
	if cur == it {
		v.putAddr(ba, v.addr(it+itemOffNext))
		return
	}
	for cur != 0 {
		next := v.addr(cur + itemOffNext)
		if next == it {
			v.putAddr(cur+itemOffNext, v.addr(it+itemOffNext))
			return
		}
		cur = next
	}
}

// unlinkItem fully removes an item, whose key hashes to h, from the hash
// chain and the LRU, and frees its chunk.
func (sh *shard) unlinkItem(v sview, it mem.Addr, h uint64) {
	sh.hashUnlink(v, it, h)
	sh.lruUnlink(v, it)
	vlen := v.u64(it + itemOffValLen)
	klen := v.u64(it + itemOffKeyLen)
	ci := int(v.u64(it + itemOffClass))
	sh.releaseChunk(v, ci, it)
	sh.items--
	sh.bytes -= itemHeader + klen + vlen
	sh.noteOccupancy()
}

// lookupLocked finds an item by key (hash h) within the shard. The
// caller must hold the shard lock.
func (sh *shard) lookupLocked(v sview, key []byte, h uint64) mem.Addr {
	ba := sh.bucketAddr(h)
	it := v.addr(ba)
	for it != 0 {
		if itemKeyEqual(v, it, key) {
			return it
		}
		it = v.addr(it + itemOffNext)
	}
	return 0
}

// Get copies out the value and flags for key, or ok=false.
func (st *Storage) Get(c *mem.CPU, key []byte) (value []byte, flags uint32, ok bool) {
	v := st.view(c)
	h := hashKey(key)
	sh := st.lockShard(h)
	defer sh.mu.Unlock()
	value, flags, _, ok = sh.getLocked(v, key, h, false)
	return append([]byte(nil), value...), flags, ok
}

// RenderGet is a get that writes its reply entry, "VALUE <key> <flags>
// <bytes>[ <cas>]\r\n<data>\r\n", into dst under the shard lock: the
// value goes from cache memory straight into dst, the rest of the
// connection's write buffer, in one copy. What does not fit in dst is
// dropped. It returns the entry's full length, or 0 on a miss; the get
// is counted either way, as every get is.
func (st *Storage) RenderGet(c *mem.CPU, key, dst []byte, withCAS bool) int {
	v := st.view(c)
	h := hashKey(key)
	sh := st.lockShard(h)
	defer sh.mu.Unlock()
	value, flags, casid, ok := sh.getLocked(v, key, h, withCAS)
	if !ok {
		return 0
	}
	return putEntry(dst, key, value, flags, withCAS, casid)
}

// getLocked is a counted get of key (hash h): a hit is marked, and its
// value is the arena window over the item's value, valid only while the
// caller holds the shard lock (a checked copy without the window).
func (sh *shard) getLocked(v sview, key []byte, h uint64, withCAS bool) (value []byte, flags uint32, casid uint64, ok bool) {
	sh.gets++
	it := sh.lookupLocked(v, key, h)
	if it == 0 {
		return nil, 0, 0, false
	}
	sh.hits++
	sh.lruBump(v, it)
	va, vlen := itemValueAddr(v, it)
	value = v.bytes(va, vlen)
	flags = uint32(v.u64(it + itemOffFlags))
	if withCAS {
		casid = v.u64(it + itemOffCAS)
	}
	return value, flags, casid, true
}

// storeLocked stores key=value (h is key's hash) and returns the new CAS
// id. Caller holds the shard lock. A resident item whose new size needs
// the same slab class is rewritten in place (rewriteLocked); any other
// resident item is unlinked and the store writes a fresh item.
func (sh *shard) storeLocked(v sview, key, value []byte, flags uint32, h uint64) (uint64, error) {
	need := uint64(itemHeader + len(key) + len(value))
	ci, err := sh.classFor(need)
	if err != nil {
		return 0, err
	}
	if old := sh.lookupLocked(v, key, h); old != 0 {
		if v.u64(old+itemOffClass) == uint64(ci) {
			return sh.rewriteLocked(v, old, len(key), value, flags), nil
		}
		sh.unlinkItem(v, old, h)
	}
	it, err := sh.grabChunk(v, ci)
	if err != nil {
		return 0, err
	}
	sh.casCounter++
	v.putAddr(it+itemOffNext, 0)
	v.putAddr(it+itemOffLRUN, 0)
	v.putAddr(it+itemOffLRUP, 0)
	v.putU64(it+itemOffKeyLen, uint64(len(key)))
	v.putU64(it+itemOffValLen, uint64(len(value)))
	v.putU64(it+itemOffFlags, uint64(flags))
	v.putU64(it+itemOffClass, uint64(ci))
	v.putU64(it+itemOffCAS, sh.casCounter)
	v.write(it+itemHeader, key)
	v.write(it+itemHeader+mem.Addr(len(key)), value)
	// Link: hash chain head + LRU head.
	ba := sh.bucketAddr(h)
	v.putAddr(it+itemOffNext, v.addr(ba))
	v.putAddr(ba, it)
	sh.lruPush(v, it)
	sh.items++
	sh.bytes += need
	sh.noteOccupancy()
	return sh.casCounter, nil
}

// rewriteLocked overwrites resident item it (key length klen) with value
// and flags in its own chunk, the way memcached's do_add_delta rewrites a
// counter that still fits: the value length, the flags word with
// itemActive set (a store is a use and gets CLOCK's second chance, as a
// hit does), a fresh CAS id and the value bytes. The hash chain, the LRU
// links, the key and the free list are not written. Returns the CAS id.
func (sh *shard) rewriteLocked(v sview, it mem.Addr, klen int, value []byte, flags uint32) uint64 {
	oldLen := v.u64(it + itemOffValLen)
	sh.casCounter++
	v.putU64(it+itemOffValLen, uint64(len(value)))
	v.putU64(it+itemOffFlags, uint64(flags)|itemActive)
	v.putU64(it+itemOffCAS, sh.casCounter)
	v.write(it+itemHeader+mem.Addr(klen), value)
	sh.bytes = sh.bytes - oldLen + uint64(len(value))
	return sh.casCounter
}

func (sh *shard) setLocked(v sview, key, value []byte, flags uint32, h uint64) error {
	sh.sets++
	_, err := sh.storeLocked(v, key, value, flags, h)
	return err
}

// Set stores key=value, replacing any existing item.
func (st *Storage) Set(c *mem.CPU, key, value []byte, flags uint32) error {
	if len(key) > MaxKeyLen {
		return ErrKeyTooLong
	}
	v := st.view(c)
	h := hashKey(key)
	sh := st.lockShard(h)
	defer sh.mu.Unlock()
	return sh.setLocked(v, key, value, flags, h)
}

// StoreOutcome reports conditional-store results.
type StoreOutcome int

// Conditional-store outcomes.
const (
	// Stored: the mutation was applied.
	Stored StoreOutcome = iota + 1
	// NotStored: the existence precondition failed (add on present key,
	// replace/append/prepend on missing key).
	NotStored
	// CASMismatch: the item changed since the witnessed CAS id.
	CASMismatch
	// NotFoundOutcome: cas on a missing key.
	NotFoundOutcome
)

// Add stores only if the key does not exist (memcached add).
func (st *Storage) Add(c *mem.CPU, key, value []byte, flags uint32) (StoreOutcome, error) {
	if len(key) > MaxKeyLen {
		return NotStored, ErrKeyTooLong
	}
	v := st.view(c)
	h := hashKey(key)
	sh := st.lockShard(h)
	defer sh.mu.Unlock()
	sh.sets++
	if sh.lookupLocked(v, key, h) != 0 {
		return NotStored, nil
	}
	if _, err := sh.storeLocked(v, key, value, flags, h); err != nil {
		return NotStored, err
	}
	return Stored, nil
}

// Replace stores only if the key exists (memcached replace).
func (st *Storage) Replace(c *mem.CPU, key, value []byte, flags uint32) (StoreOutcome, error) {
	if len(key) > MaxKeyLen {
		return NotStored, ErrKeyTooLong
	}
	v := st.view(c)
	h := hashKey(key)
	sh := st.lockShard(h)
	defer sh.mu.Unlock()
	sh.sets++
	if sh.lookupLocked(v, key, h) == 0 {
		return NotStored, nil
	}
	if _, err := sh.storeLocked(v, key, value, flags, h); err != nil {
		return NotStored, err
	}
	return Stored, nil
}

// Concat appends (or prepends) data to an existing value.
func (st *Storage) Concat(c *mem.CPU, key, data []byte, prepend bool) (StoreOutcome, error) {
	v := st.view(c)
	h := hashKey(key)
	sh := st.lockShard(h)
	defer sh.mu.Unlock()
	sh.sets++
	it := sh.lookupLocked(v, key, h)
	if it == 0 {
		return NotStored, nil
	}
	va, vlen := itemValueAddr(v, it)
	old := v.readBytes(va, vlen)
	flags := uint32(v.u64(it + itemOffFlags))
	var merged []byte
	if prepend {
		merged = append(append([]byte{}, data...), old...)
	} else {
		merged = append(append([]byte{}, old...), data...)
	}
	if _, err := sh.storeLocked(v, key, merged, flags, h); err != nil {
		return NotStored, err
	}
	return Stored, nil
}

// CAS stores only if the item's CAS id still matches casid.
func (st *Storage) CAS(c *mem.CPU, key, value []byte, flags uint32, casid uint64) (StoreOutcome, error) {
	v := st.view(c)
	h := hashKey(key)
	sh := st.lockShard(h)
	defer sh.mu.Unlock()
	sh.sets++
	it := sh.lookupLocked(v, key, h)
	if it == 0 {
		return NotFoundOutcome, nil
	}
	if v.u64(it+itemOffCAS) != casid {
		return CASMismatch, nil
	}
	if _, err := sh.storeLocked(v, key, value, flags, h); err != nil {
		return NotStored, err
	}
	return Stored, nil
}

// peek looks key up for a check the client does not see: the hardened
// arm's existence, CAS and append/prepend probes, and incr/decr's read on
// both arms. It returns the flags and CAS id, copies the value only when
// withValue, counts no get or hit and marks nothing, as the direct arm's
// conditional stores and Delete do.
func (st *Storage) peek(c *mem.CPU, key []byte, withValue bool) (value []byte, flags uint32, casid uint64, ok bool) {
	v := st.view(c)
	h := hashKey(key)
	sh := st.lockShard(h)
	defer sh.mu.Unlock()
	it := sh.lookupLocked(v, key, h)
	if it == 0 {
		return nil, 0, 0, false
	}
	if withValue {
		va, vlen := itemValueAddr(v, it)
		value = v.readBytes(va, vlen)
	}
	return value, uint32(v.u64(it + itemOffFlags)), v.u64(it + itemOffCAS), true
}

// probe is peek without the CAS id: the direct arm's uncounted read.
func (st *Storage) probe(c *mem.CPU, key []byte, withValue bool) ([]byte, uint32, bool) {
	value, flags, _, ok := st.peek(c, key, withValue)
	return value, flags, ok
}

// countGet counts, in key's shard, a get the deferred overlay answered.
func (st *Storage) countGet(key []byte, hit bool) {
	sh := st.lockShard(hashKey(key))
	sh.gets++
	if hit {
		sh.hits++
	}
	sh.mu.Unlock()
}

// countSet counts, in key's shard, a store attempt that stored nothing.
func (st *Storage) countSet(key []byte) {
	sh := st.lockShard(hashKey(key))
	sh.sets++
	sh.mu.Unlock()
}

// Touch marks an item active, as a hit does (expiry is not simulated).
func (st *Storage) Touch(c *mem.CPU, key []byte) bool {
	v := st.view(c)
	h := hashKey(key)
	sh := st.lockShard(h)
	defer sh.mu.Unlock()
	it := sh.lookupLocked(v, key, h)
	if it == 0 {
		return false
	}
	sh.lruBump(v, it)
	return true
}

// FlushAll discards every item, shard by shard. Shards are flushed in
// order under their own locks — there is no cross-shard invariant that
// needs an all-shards critical section.
func (st *Storage) FlushAll(c *mem.CPU) {
	v := st.view(c)
	for _, sh := range st.shards {
		sh.mu.Lock()
		sh.flushLocked(v)
		sh.mu.Unlock()
	}
}

func (sh *shard) flushLocked(v sview) {
	for ci := range sh.classes {
		cl := &sh.classes[ci]
		for cl.lruTail != 0 {
			sh.unlinkItem(v, cl.lruTail, itemHash(v, cl.lruTail))
		}
	}
}

// Delete removes key, reporting whether it existed.
func (st *Storage) Delete(c *mem.CPU, key []byte) bool {
	v := st.view(c)
	h := hashKey(key)
	sh := st.lockShard(h)
	defer sh.mu.Unlock()
	return sh.deleteLocked(v, key, h)
}

func (sh *shard) deleteLocked(v sview, key []byte, h uint64) bool {
	it := sh.lookupLocked(v, key, h)
	if it == 0 {
		return false
	}
	sh.unlinkItem(v, it, h)
	return true
}

// BatchOp is one deferred mutation applied by ApplyShardBatch. Ops for
// one shard are grouped at apply time so a whole batch takes each shard
// lock at most once.
type BatchOp struct {
	// Delete removes Key; otherwise the op stores Key=Value with Flags.
	Delete bool
	Key    []byte
	Value  []byte
	Flags  uint32

	// hash caches hashKey(Key) once hashed is set: the deferred-op apply
	// hashes each key to pick its shard and passes the hash along.
	hash   uint64
	hashed bool
}

// ApplyShardBatch applies ops — all of which must map to shard si —
// under a single acquisition of that shard's lock, preserving op order.
// The first store error aborts the remainder (matching the sequential
// semantics of applying the ops one by one) and is returned. Keys not
// yet hashed are hashed into ops before the lock is taken.
func (st *Storage) ApplyShardBatch(c *mem.CPU, si int, ops []BatchOp) error {
	sh := st.shards[si]
	v := st.view(c)
	for i := range ops {
		if op := &ops[i]; !op.hashed {
			op.hash, op.hashed = hashKey(op.Key), true
		}
	}
	sh.lockMeasured()
	defer sh.mu.Unlock()
	sh.noteBatchOps(int64(len(ops)))
	for i := range ops {
		op := &ops[i]
		if op.Delete {
			sh.deleteLocked(v, op.Key, op.hash)
			continue
		}
		if len(op.Key) > MaxKeyLen {
			return ErrKeyTooLong
		}
		if err := sh.setLocked(v, op.Key, op.Value, op.Flags, op.hash); err != nil {
			return err
		}
	}
	return nil
}

// StorageStats is a snapshot of cache statistics, summed across shards.
type StorageStats struct {
	Items     int
	Bytes     uint64
	Evictions int
	Sets      int
	Gets      int
	Hits      int
}

// Stats returns a snapshot of the cache statistics (summed over shards;
// each shard is snapshotted under its own lock, so the total is a
// consistent per-shard composition, not a global atomic snapshot —
// exactly the fidelity Memcached's own threadlocal stats offer).
func (st *Storage) Stats() StorageStats {
	var out StorageStats
	for _, sh := range st.shards {
		sh.mu.Lock()
		out.Items += sh.items
		out.Bytes += sh.bytes
		out.Evictions += sh.evictions
		out.Sets += sh.sets
		out.Gets += sh.gets
		out.Hits += sh.hits
		sh.mu.Unlock()
	}
	return out
}

// ShardContention is one shard's cumulative contention counters.
type ShardContention struct {
	// Contended counts lock acquisitions that found the lock held;
	// Parked counts those of them that outlasted the spin budget and
	// slept in the mutex; WaitNs is what all of them waited.
	Contended int64
	Parked    int64
	WaitNs    int64
	BatchOps  int64
}

// ContentionStats snapshots the per-shard contention counters (atomic
// reads; no shard locks taken).
func (st *Storage) ContentionStats() []ShardContention {
	out := make([]ShardContention, len(st.shards))
	for i, sh := range st.shards {
		out[i] = ShardContention{
			Contended: sh.contended.Load(),
			Parked:    sh.parked.Load(),
			WaitNs:    sh.waitNs.Load(),
			BatchOps:  sh.batchOps.Load(),
		}
	}
	return out
}

// ShardStats returns the per-shard Items/Bytes breakdown, for the shard
// occupancy telemetry gauges.
func (st *Storage) ShardStats() []StorageStats {
	out := make([]StorageStats, len(st.shards))
	for i, sh := range st.shards {
		sh.mu.Lock()
		out[i] = StorageStats{
			Items:     sh.items,
			Bytes:     sh.bytes,
			Evictions: sh.evictions,
			Sets:      sh.sets,
			Gets:      sh.gets,
			Hits:      sh.hits,
		}
		sh.mu.Unlock()
	}
	return out
}
