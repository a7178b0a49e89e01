package chaos

import (
	"bytes"
	"fmt"

	"sdrad/internal/memcache"
)

// runBatch drives the hardened memcached build through pipelined request
// batches — the amortized guard-scope path — and injects the bset
// overflow at seeded positions inside a batch. The paper's rewind
// semantics must hold batch-wide: a trap anywhere in the batch rewinds
// exactly once, discards the WHOLE in-flight batch (writes earlier in
// the batch never reach the database), closes the batch's connection,
// and synthesizes exactly one forensics report. Clean batches must be
// bit-equivalent to sequential execution, which the campaign checks by
// replaying every pipeline against a shadow store.
func runBatch(cfg Config, r *Report) error {
	const maxBatch = 8
	w, s, err := newMemcache(cfg, r, memcache.Config{MaxBatch: maxBatch})
	if err != nil {
		return err
	}
	defer s.Stop()
	rng := w.rng

	persistVal := []byte("survives-every-batch-rewind")
	if err := w.persist(persistVal); err != nil {
		return err
	}

	// shadow mirrors the store exactly: batches either apply in full
	// (clean) or not at all (trapped), so there is never taint.
	shadow := map[string][]byte{"persist": persistVal}
	checkKey := func(label, key string) {
		resp, closed := w.do(memcache.FormatGet(key))
		if closed {
			r.failf("%s: probe get %s closed the connection", label, key)
			return
		}
		val, _, ok := memcache.ParseGetValue(resp)
		want, have := shadow[key]
		if ok != have {
			r.failf("%s: %s present=%v, shadow says %v", label, key, ok, have)
		}
		if ok && !bytes.Equal(val, want) {
			r.failf("%s: %s value %q, shadow %q", label, key, val, want)
		}
	}

	for i := 0; i < cfg.Ops; i++ {
		n := 2 + rng.Intn(maxBatch-1) // pipeline depth in [2, maxBatch]: one event, one batch
		atkPos := -1
		if rng.Intn(3) == 0 {
			atkPos = rng.Intn(n)
		}
		label := fmt.Sprintf("op=%02d batch n=%d atk=%d", i, n, atkPos)

		type planned struct {
			verb string
			key  string
			val  []byte
		}
		var plan []planned
		var reqs [][]byte
		for j := 0; j < n; j++ {
			if j == atkPos {
				plan = append(plan, planned{verb: "bset"})
				reqs = append(reqs, memcache.FormatBSet("atk", 1<<20, nil))
				continue
			}
			key := fmt.Sprintf("k%d", rng.Intn(8))
			switch rng.Intn(3) {
			case 0, 1:
				val := make([]byte, 8+rng.Intn(56))
				for k := range val {
					val[k] = byte('a' + rng.Intn(26))
				}
				plan = append(plan, planned{verb: "set", key: key, val: val})
				reqs = append(reqs, memcache.FormatSet(key, val, uint32(i)))
			case 2:
				plan = append(plan, planned{verb: "get", key: key})
				reqs = append(reqs, memcache.FormatGet(key))
			}
		}

		b := w.before()
		res := w.conn.DoPipeline(reqs)
		if len(res) != n {
			r.failf("%s: %d results for %d requests", label, len(res), n)
			continue
		}

		if atkPos >= 0 {
			// Trapped batch: one rewind, one forensics report, every item
			// reported closed, and NONE of the batch's writes visible.
			for j, pr := range res {
				if !pr.Closed {
					r.failf("%s: item %d not closed after batch rewind", label, j)
				}
			}
			w.trapped(label, b, false)
			w.conn = w.newConn()
			w.audit(label)
			w.checkMappedStable("event-rewind", label)
			for _, p := range plan {
				if p.verb == "set" {
					checkKey(label+" discarded-write", p.key)
				}
			}
			w.probe(label)
			r.event("%s rewind", label)
		} else {
			// Clean batch: sequential semantics, then the shadow advances.
			w.calm(label, b)
			classes := make([]string, 0, n)
			for j, p := range plan {
				pr := res[j]
				if pr.Err != nil || pr.Closed {
					r.failf("%s: item %d (%s): closed=%v err=%v", label, j, p.verb, pr.Closed, pr.Err)
					continue
				}
				classes = append(classes, respClass(pr.Resp, pr.Closed))
				switch p.verb {
				case "set":
					if !bytes.HasPrefix(pr.Resp, []byte("STORED")) {
						r.failf("%s: set %s = %q", label, p.key, pr.Resp)
						continue
					}
					shadow[p.key] = p.val
				case "get":
					val, _, ok := memcache.ParseGetValue(pr.Resp)
					want, have := shadow[p.key]
					if ok != have {
						r.failf("%s: item %d get %s present=%v, shadow says %v", label, j, p.key, ok, have)
					}
					if ok && !bytes.Equal(val, want) {
						r.failf("%s: item %d get %s = %q, shadow %q", label, j, p.key, val, want)
					}
				}
			}
			r.event("%s %v", label, classes)
		}

		if crashed, cause := w.crashed(); crashed {
			return fmt.Errorf("chaos: server process died at op %d: %v", i, cause)
		}
	}

	w.checkMappedStable("event-rewind", "final")
	w.final()
	return nil
}
