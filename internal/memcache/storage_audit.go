package memcache

import (
	"fmt"

	"sdrad/internal/mem"
)

// AuditShards re-derives every shard's invariants from the raw simulated
// memory and checks them against the shard's bookkeeping. It is the
// storage-level analog of core.Library.Audit, run by the chaos engine
// after fault-injection campaigns: a rewind must never leave a shard
// with a broken chain, a misplaced key, or stats that disagree with the
// structures.
//
// Checked per shard:
//   - every hash-chain item lives in the shard and bucket its key
//     hashes to;
//   - every hash-chain item appears exactly once on its class LRU, and
//     the LRU is a consistent doubly-linked list (forward walk matches
//     backward walk);
//   - class free lists and used counts account for every chunk carved
//     from slab pages (chunks == used + free);
//   - items/bytes stats equal the totals re-derived from the chains.
func (st *Storage) AuditShards(c *mem.CPU) error {
	for si, sh := range st.shards {
		sh.mu.Lock()
		err := sh.audit(c, si)
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

func (sh *shard) audit(c *mem.CPU, si int) error {
	items := 0
	var bytes uint64
	perClass := make(map[int]int)
	onChain := make(map[mem.Addr]bool)
	for b := uint64(0); b < sh.nbuckets; b++ {
		ba := sh.buckets + mem.Addr(b*8)
		for it := c.ReadAddr(ba); it != 0; it = c.ReadAddr(it + itemOffNext) {
			if onChain[it] {
				return fmt.Errorf("memcache audit: shard %d bucket %d: item %#x linked twice", si, b, it)
			}
			onChain[it] = true
			key := c.ReadBytes(it+itemHeader, int(c.ReadU64(it+itemOffKeyLen)))
			h := hashKey(key)
			if h%sh.nbuckets != b {
				return fmt.Errorf("memcache audit: shard %d: key %q in bucket %d, hashes to %d",
					si, key, b, h%sh.nbuckets)
			}
			ci := int(c.ReadU64(it + itemOffClass))
			if ci < 0 || ci >= len(sh.classes) {
				return fmt.Errorf("memcache audit: shard %d: item %#x has class %d out of range", si, it, ci)
			}
			perClass[ci]++
			items++
			bytes += itemHeader + c.ReadU64(it+itemOffKeyLen) + c.ReadU64(it+itemOffValLen)
		}
	}
	if items != sh.items {
		return fmt.Errorf("memcache audit: shard %d: chains hold %d items, stats say %d", si, items, sh.items)
	}
	if bytes != sh.bytes {
		return fmt.Errorf("memcache audit: shard %d: chains hold %d bytes, stats say %d", si, bytes, sh.bytes)
	}
	usedTotal := 0
	for ci := range sh.classes {
		cl := &sh.classes[ci]
		// Forward LRU walk: every node must be on a hash chain and of
		// this class; count must match the chain-derived class count.
		lruCount := 0
		var last mem.Addr
		for it := cl.lruHead; it != 0; it = c.ReadAddr(it + itemOffLRUN) {
			if !onChain[it] {
				return fmt.Errorf("memcache audit: shard %d class %d: LRU node %#x not on any hash chain", si, ci, it)
			}
			if int(c.ReadU64(it+itemOffClass)) != ci {
				return fmt.Errorf("memcache audit: shard %d class %d: LRU node %#x has class %d",
					si, ci, it, c.ReadU64(it+itemOffClass))
			}
			lruCount++
			if lruCount > items {
				return fmt.Errorf("memcache audit: shard %d class %d: LRU cycle", si, ci)
			}
			last = it
		}
		if last != cl.lruTail {
			return fmt.Errorf("memcache audit: shard %d class %d: forward walk ends at %#x, tail is %#x",
				si, ci, last, cl.lruTail)
		}
		// Backward walk must see the same number of nodes.
		backCount := 0
		for it := cl.lruTail; it != 0; it = c.ReadAddr(it + itemOffLRUP) {
			backCount++
			if backCount > lruCount {
				return fmt.Errorf("memcache audit: shard %d class %d: backward LRU walk longer than forward", si, ci)
			}
		}
		if backCount != lruCount {
			return fmt.Errorf("memcache audit: shard %d class %d: LRU forward=%d backward=%d",
				si, ci, lruCount, backCount)
		}
		if lruCount != perClass[ci] {
			return fmt.Errorf("memcache audit: shard %d class %d: LRU holds %d, chains hold %d",
				si, ci, lruCount, perClass[ci])
		}
		if cl.used != lruCount {
			return fmt.Errorf("memcache audit: shard %d class %d: used=%d but %d live items",
				si, ci, cl.used, lruCount)
		}
		free := 0
		for ch := cl.freeHead; ch != 0; ch = c.ReadAddr(ch) {
			free++
			if free > cl.chunks {
				return fmt.Errorf("memcache audit: shard %d class %d: free-list cycle", si, ci)
			}
		}
		if cl.used+free != cl.chunks {
			return fmt.Errorf("memcache audit: shard %d class %d: used=%d free=%d chunks=%d",
				si, ci, cl.used, free, cl.chunks)
		}
		usedTotal += cl.used
	}
	if usedTotal != items {
		return fmt.Errorf("memcache audit: shard %d: classes account %d used chunks, %d items live", si, usedTotal, items)
	}
	return nil
}
