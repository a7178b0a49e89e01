package chaos

import (
	"bytes"
	"errors"
	"fmt"

	"sdrad/internal/core"
	"sdrad/internal/memcache"
)

// runMemcache drives the hardened memcached build with a seeded mix of
// valid traffic, the CVE-2011-4971 binary-set overflow, fuzz-mutated
// protocol bytes, injector-raised PKU faults mid-request, and injected
// allocation failures. After every absorbed rewind it audits the monitor
// on the serving thread and proves the cache survived. Every memcache
// rewind discards the same event domain, so all post-rewind steady
// states share one mapped-bytes class.
func runMemcache(cfg Config, r *Report) error {
	w, s, err := newMemcache(cfg, r, memcache.Config{})
	if err != nil {
		return err
	}
	defer s.Stop()
	rng, lib := w.rng, w.lib

	// A key stored before the chaos starts; it must survive every rewind.
	if err := w.persist([]byte("survives-every-rewind")); err != nil {
		return err
	}

	vectors := []string{"set", "get", "delete", "mutate", "bset", "inject-pku", "inject-oom"}
	// shadow mirrors what the cache must hold; tainted marks keys whose
	// server state is unknowable (a mutated or faulted request may or may
	// not have reached the store). A taint clears on the next definite
	// observation of the key.
	shadow := map[string][]byte{}
	tainted := map[string]bool{}
	for i := 0; i < cfg.Ops; i++ {
		vector := vectors[rng.Intn(len(vectors))]
		key := fmt.Sprintf("k%d", rng.Intn(8))
		label := fmt.Sprintf("op=%02d %s", i, vector)
		b := w.before()

		switch vector {
		case "set":
			val := make([]byte, 8+rng.Intn(56))
			for j := range val {
				val[j] = byte('a' + rng.Intn(26))
			}
			resp, closed := w.do(memcache.FormatSet(key, val, uint32(i)))
			if !closed && bytes.HasPrefix(resp, []byte("STORED")) {
				shadow[key] = val
				delete(tainted, key)
			}
			w.calm(label, b)
			r.event("%s %s len=%d %s", label, key, len(val), respClass(resp, closed))
		case "get":
			resp, closed := w.do(memcache.FormatGet(key))
			val, _, ok := memcache.ParseGetValue(resp)
			if tainted[key] {
				// Unknown state: resynchronize the shadow from what the
				// server actually holds and restore the oracle.
				if !closed {
					if ok {
						shadow[key] = append([]byte(nil), val...)
					} else {
						delete(shadow, key)
					}
					delete(tainted, key)
				}
			} else {
				want, have := shadow[key]
				if !closed && ok != have {
					r.failf("%s: %s present=%v, shadow says %v", label, key, ok, have)
				}
				if !closed && ok && !bytes.Equal(val, want) {
					r.failf("%s: %s value %q, shadow %q", label, key, val, want)
				}
			}
			w.calm(label, b)
			r.event("%s %s hit=%v", label, key, ok)
		case "delete":
			resp, closed := w.do(memcache.FormatDelete(key))
			if !closed {
				// DELETED and NOT_FOUND both leave the key absent.
				delete(shadow, key)
				delete(tainted, key)
			}
			w.calm(label, b)
			r.event("%s %s %s", label, key, respClass(resp, closed))
		case "mutate":
			base := memcache.FormatSet(key, []byte("mutation-fodder"), 1)
			if rng.Intn(2) == 0 {
				base = memcache.FormatGet(key)
			}
			// A mutated request may or may not reach the store (it can
			// fail outright, store garbage, or morph into another
			// command); taint the key rather than guess.
			tainted[key] = true
			w.mutate(label, "event-rewind", base)
		case "bset":
			// CVE-2011-4971 analog: a binary set whose claimed body length
			// overflows the staging buffer. Must always rewind.
			w.attack(label, "event-rewind", memcache.FormatBSet("atk", 1<<20, nil))
			r.event("%s rewind", label)
		case "inject-pku":
			// A hardened set makes five gated in-domain accesses, so the
			// countdown must stay within that budget to guarantee firing.
			countdown := 1 + rng.Intn(4)
			w.injectPKU(label, "event-rewind", countdown, memcache.FormatSet(key, []byte("doomed-request"), 2))
			tainted[key] = true // outcome of the faulted set is undefined
			r.event("%s countdown=%d rewind", label, countdown)
		case "inject-oom":
			// Allocation failure under live load. A forced rewind first
			// guarantees the next request rebuilds the event domain, so the
			// hook deterministically fails that Malloc: the server must
			// degrade to a clean error — no rewind, no crash — and recover
			// once the hook is gone.
			w.trap(label, memcache.FormatBSet("atk", 1<<20, nil), false)
			// Audit the rewind without issuing a request: a health probe
			// here would rebuild the event domain and defuse the hook
			// before the starved request arrives.
			w.audit(label)
			w.checkMappedStable("event-rewind", label)
			fired := false
			lib.SetAllocFault(func(udi core.UDI, size uint64) error {
				if udi == core.RootUDI {
					return nil // root allocs (conn buffers) are not the target
				}
				fired = true
				return errInjectedOOM
			})
			starved := w.before()
			_, _, oomErr := w.conn.Do(memcache.FormatSet(key, []byte("starved-request"), 3))
			tainted[key] = true
			lib.SetAllocFault(nil)
			if !fired {
				r.failf("%s: allocation-fault hook never fired", label)
			}
			if !errors.Is(oomErr, core.ErrHeapExhausted) {
				r.failf("%s: starved request returned %v, want heap exhaustion", label, oomErr)
			}
			w.calm(label, starved)
			r.event("%s fired=%v heap-exhausted=%v", label, fired, oomErr != nil)
			resp, closed := w.do(memcache.FormatSet(key, []byte("recovered"), 4))
			if closed || !bytes.HasPrefix(resp, []byte("STORED")) {
				r.failf("%s: server did not recover from OOM: closed=%v resp=%q", label, closed, resp)
			} else {
				shadow[key] = []byte("recovered")
				delete(tainted, key)
			}
		}

		if crashed, cause := w.crashed(); crashed {
			return fmt.Errorf("chaos: server process died at op %d: %v", i, cause)
		}
	}
	w.final()
	return nil
}
