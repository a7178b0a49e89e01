// Package cluster scales the rewind-and-discard story past one process:
// a stdlib-only TCP front-end that consistent-hashes memcached keys onto
// N hardened backends and routes *around* the ones that are busy
// rewinding. Inside a process, a fault is a cheap local event — the
// monitor discards the domain and the server keeps serving. The router
// applies the same idea one level up: a backend whose telemetry says it
// is rewinding too hard (or whose policy engine has quarantined its
// event domain) is demoted, its keys spill to ring successors, and a
// probation readmit brings it back once it proves itself — mirroring
// internal/policy's backoff/quarantine/probation ladder at fleet scope.
package cluster

import (
	"fmt"
	"sort"
)

// fnv1a hashes s with 64-bit FNV-1a plus a finalizer. Raw FNV-1a has
// weak upper bits on short, similar strings (vnode labels, sequential
// keys), and ring lookups order by the full 64-bit value — the fmix64
// avalanche step spreads the entropy so virtual nodes land uniformly.
// Pure function of the input, deterministic across runs and machines
// (tests pick keys by the backend the ring puts them on).
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// vnode is one virtual point on the ring.
type vnode struct {
	hash    uint64
	backend int // index into Ring.names
}

// Ring is an immutable consistent-hash ring with virtual nodes. Lookups
// hash the key onto the circle and walk clockwise; VirtualNodes points
// per backend smooth the key-share distribution (the classic Karger
// construction). Membership changes are not mutations: the router keeps
// the ring fixed and *skips* demoted backends during the walk, so a
// backend's keys spill deterministically to its successors and return to
// it on readmission with no rehashing.
type Ring struct {
	names  []string
	vnodes []vnode
}

// NewRing builds a ring over the named backends. Names — not addresses —
// are hashed, so a deployment keeps its key placement when a backend
// moves hosts, and tests get a layout that is a pure function of the
// configuration.
func NewRing(names []string, virtualNodes int) (*Ring, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one backend")
	}
	if len(names) > 64 {
		// Successors tracks visited backends in a 64-bit mask.
		return nil, fmt.Errorf("cluster: at most 64 backends per ring (got %d)", len(names))
	}
	if virtualNodes <= 0 {
		virtualNodes = 64
	}
	seen := map[string]bool{}
	r := &Ring{names: append([]string(nil), names...)}
	for i, n := range names {
		if n == "" {
			return nil, fmt.Errorf("cluster: backend %d has an empty name", i)
		}
		if seen[n] {
			return nil, fmt.Errorf("cluster: duplicate backend name %q", n)
		}
		seen[n] = true
		for v := 0; v < virtualNodes; v++ {
			r.vnodes = append(r.vnodes, vnode{
				hash:    fnv1a(fmt.Sprintf("%s#%d", n, v)),
				backend: i,
			})
		}
	}
	sort.Slice(r.vnodes, func(a, b int) bool {
		if r.vnodes[a].hash != r.vnodes[b].hash {
			return r.vnodes[a].hash < r.vnodes[b].hash
		}
		return r.vnodes[a].backend < r.vnodes[b].backend
	})
	return r, nil
}

// Backends returns the backend count.
func (r *Ring) Backends() int { return len(r.names) }

// Name returns backend i's name.
func (r *Ring) Name(i int) string { return r.names[i] }

// Successors appends to dst the distinct backends owning key, in ring
// order: dst[0] is the primary, the rest are the spill order. max bounds
// the result (<= 0 means all backends). The walk wraps; with B backends
// every key has exactly B distinct successors.
func (r *Ring) Successors(key string, max int, dst []int) []int {
	if max <= 0 || max > len(r.names) {
		max = len(r.names)
	}
	h := fnv1a(key)
	start := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].hash >= h })
	dst = dst[:0]
	var seen uint64 // backend-index bitmask; backends are few
	for i := 0; len(dst) < max && i < len(r.vnodes); i++ {
		v := r.vnodes[(start+i)%len(r.vnodes)]
		if seen&(1<<uint(v.backend)) != 0 {
			continue
		}
		seen |= 1 << uint(v.backend)
		dst = append(dst, v.backend)
	}
	return dst
}

// Primary returns the backend owning key.
func (r *Ring) Primary(key string) int {
	if len(r.vnodes) == 0 {
		return 0
	}
	h := fnv1a(key)
	i := sort.Search(len(r.vnodes), func(j int) bool { return r.vnodes[j].hash >= h })
	return r.vnodes[i%len(r.vnodes)].backend
}
