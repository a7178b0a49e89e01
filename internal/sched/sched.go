// Package sched holds the per-worker AIMD batch-bound controller the
// hardened servers' drain loops (internal/memcache, internal/httpd)
// consult on every round. It is stdlib-only and deterministic under a
// hand-advanced clock (mirroring internal/policy's ManualClock
// discipline).
//
// The guard scope amortizes one Guard/Enter/Exit domain-switch round
// over a batch, but a single fault discards the whole batch, so the
// right size depends on load AND on the live rewind rate. The Controller
// grows the bound additively toward the server's MaxBatch while the
// queue shows sustained backlog, collapses it toward 1 across idle
// rounds (a lone request should not drag a 16-slot scope around), and
// shrinks it multiplicatively the moment a rewind lands, holding a
// ceiling of MaxBatch >> windowRewinds while the sliding rewind window
// is hot — the "Unlimited Lives" rewind-rate signal applied to blast
// radius instead of admission.
//
// placement.go keeps the connection-placement scorer only because
// benchmark/ times it (sched.placement_pick_ns); no server calls it.
// Both go in the next PR that is allowed to edit the benchmark.
package sched

import (
	"sync/atomic"
	"time"
)

// Config carries the controller's wiring and test seams. The zero value
// is what every server runs with by default.
type Config struct {
	// Clock returns nanoseconds; nil uses time.Now().UnixNano(). Chaos
	// campaigns and tests install a policy.ManualClock's Now so every
	// window decision is deterministic.
	Clock func() int64
	// OnFloorPinned, when non-nil, fires when a controller has been
	// pinned at bound 1 by a hot rewind window for a full window — the
	// signal that batching alone cannot absorb the fault rate and the
	// policy engine should start backing the domain off. Called from the
	// owning worker goroutine with the pinned duration in nanoseconds.
	OnFloorPinned func(pinnedNs int64)
}

// window is the sliding rewind window, matching internal/policy's
// default. Tests that need it to pass advance a manual Clock.
const window = time.Second

// idleRounds is how many consecutive backlog-free single-item rounds
// trigger one halving step toward bound 1.
const idleRounds = 2

// Controller is one worker's adaptive batch-bound state. All mutating
// calls (ObserveRound, NoteRewind) happen on the owning worker
// goroutine; the current bound is published atomically so snapshots and
// metric scrapes from other goroutines are safe.
type Controller struct {
	cfg      Config
	maxBatch int
	bound    atomic.Int64

	// Worker-goroutine-owned state.
	idle       int
	ewmaItemNs int64
	rewinds    []int64 // rewind timestamps inside the window, oldest first
	lastNow    int64   // monotonic clamp, mirroring policy.Engine.now
	floorSince int64   // clock ns when the bound became rewind-pinned at 1; 0 = not pinned

	grows     atomic.Int64
	shrinks   atomic.Int64
	collapses atomic.Int64
	floorPins atomic.Int64
}

// NewController builds a controller whose bound never exceeds maxBatch,
// the server's configured guard-scope ceiling (which is why domain-heap
// sizing may keep tracking MaxBatch). The bound starts at the ceiling:
// with no signal yet a full batch is the safe default, and the idle
// collapse walks it down within a few quiet rounds.
func NewController(cfg Config, maxBatch int) *Controller {
	if maxBatch <= 0 {
		maxBatch = 1
	}
	if cfg.Clock == nil {
		cfg.Clock = func() int64 { return time.Now().UnixNano() }
	}
	c := &Controller{cfg: cfg, maxBatch: maxBatch}
	c.bound.Store(int64(maxBatch))
	return c
}

// Bound returns the current batch bound in [1, maxBatch].
func (c *Controller) Bound() int { return int(c.bound.Load()) }

// Now reads the controller clock (the worker uses it to time rounds so
// manual-clock runs stay deterministic).
func (c *Controller) Now() int64 { return c.cfg.Clock() }

// AtFloor reports that the controller sits at bound 1 with an empty
// rewind window — the state a lone idle request cannot move, which lets
// the worker skip the round observation entirely. Call it from the
// owning worker goroutine (it reads the window).
func (c *Controller) AtFloor() bool {
	return c.bound.Load() == 1 && len(c.rewinds) == 0
}

// now reads the clock with a monotonic clamp, as policy.Engine does.
func (c *Controller) now() int64 {
	n := c.cfg.Clock()
	if n < c.lastNow {
		n = c.lastNow
	}
	c.lastNow = n
	return n
}

// pruneWindow drops rewind timestamps older than the window.
func (c *Controller) pruneWindow(now int64) {
	cut := now - int64(window)
	i := 0
	for i < len(c.rewinds) && c.rewinds[i] <= cut {
		i++
	}
	if i > 0 {
		c.rewinds = append(c.rewinds[:0], c.rewinds[i:]...)
	}
}

// checkFloorPin tracks how long the bound has been rewind-pinned at the
// floor. Idle collapse also parks the bound at 1, but that is healthy;
// only "1 because the rewind window keeps it there" counts. Once the
// pin has lasted a full window the OnFloorPinned hook fires and the
// timer re-arms, so a persistently faulting domain escalates once per
// window rather than once per round.
func (c *Controller) checkFloorPin(now int64) {
	if c.bound.Load() != 1 || len(c.rewinds) == 0 {
		c.floorSince = 0
		return
	}
	if c.floorSince == 0 {
		c.floorSince = now
		return
	}
	if pinned := now - c.floorSince; pinned >= int64(window) {
		c.floorPins.Add(1)
		c.floorSince = now
		if c.cfg.OnFloorPinned != nil {
			c.cfg.OnFloorPinned(pinned)
		}
	}
}

// rewindCap is the multiplicative ceiling the hot rewind window imposes:
// MaxBatch >> windowRewinds, floored at 1. Every additional rewind in
// the window halves how much work one fault may discard.
func (c *Controller) rewindCap() int {
	n := len(c.rewinds)
	if n >= 63 {
		return 1
	}
	cap := c.maxBatch >> uint(n)
	if cap < 1 {
		cap = 1
	}
	return cap
}

// NoteRewind records an absorbed rewind: multiplicative decrease, and
// the window ceiling tightens for as long as the window stays hot. Call
// it from the worker goroutine that absorbed the fault.
func (c *Controller) NoteRewind() {
	now := c.now()
	c.pruneWindow(now)
	c.rewinds = append(c.rewinds, now)
	b := int(c.bound.Load()) / 2
	if b < 1 {
		b = 1
	}
	if cap := c.rewindCap(); b > cap {
		b = cap
	}
	c.bound.Store(int64(b))
	c.shrinks.Add(1)
	c.checkFloorPin(now)
}

// ObserveRound feeds one drain-round observation: backlog is the channel
// queue depth left after the drain, drained the number of items taken
// into the round, elapsedNs the round's wall time. It applies, in order:
// the rewind-window ceiling, the latency brake (a round whose per-item
// latency blows far past the EWMA halves the bound), additive increase
// under sustained backlog, and the idle collapse toward 1.
func (c *Controller) ObserveRound(backlog, drained int, elapsedNs int64) {
	if drained <= 0 {
		return
	}
	now := c.now()
	c.pruneWindow(now)
	b := int(c.bound.Load())

	itemNs := elapsedNs / int64(drained)
	// The brake compares this round against the EWMA as it stood BEFORE
	// the round — folding the spike in first would dilute the baseline it
	// is judged against.
	prev := c.ewmaItemNs
	if prev == 0 {
		prev = itemNs
	}
	c.ewmaItemNs = (3*prev + itemNs) / 4

	if cap := c.rewindCap(); b > cap {
		b = cap
		c.shrinks.Add(1)
	}
	// Latency brake: a 4x per-item blowup on a multi-item round means the
	// batch is queuing behind itself (lock convoy, slab pressure) — shed
	// size before growing again.
	if drained > 1 && prev > 0 && itemNs > 4*prev {
		if b > 1 {
			b /= 2
			c.shrinks.Add(1)
		}
	} else if backlog > 0 && drained >= b {
		// Additive increase under sustained depth.
		nb := b + 1
		if cap := c.rewindCap(); nb > cap { // cap <= maxBatch
			nb = cap
		}
		if nb > b {
			b = nb
			c.grows.Add(1)
		}
		c.idle = 0
	}
	if backlog == 0 && drained <= 1 {
		c.idle++
		if c.idle >= idleRounds && b > 1 {
			b /= 2
			c.idle = 0
			c.collapses.Add(1)
		}
	} else {
		c.idle = 0
	}
	if b < 1 {
		b = 1
	}
	c.bound.Store(int64(b))
	c.checkFloorPin(now)
}

// Snapshot is a point-in-time controller state for chaos assertions,
// tests, and metric exposition.
type Snapshot struct {
	Bound         int
	MaxBatch      int
	WindowRewinds int
	EWMAItemNs    int64
	Grows         int64
	Shrinks       int64
	Collapses     int64
	FloorPins     int64
}

// Snapshot reads the controller state. Bound and the counters are exact
// from any goroutine; WindowRewinds and EWMAItemNs are owned by the
// worker goroutine and are exact only when the worker is quiescent
// (which is how the deterministic chaos campaign reads them).
func (c *Controller) Snapshot() Snapshot {
	return Snapshot{
		Bound:         int(c.bound.Load()),
		MaxBatch:      c.maxBatch,
		WindowRewinds: len(c.rewinds),
		EWMAItemNs:    c.ewmaItemNs,
		Grows:         c.grows.Load(),
		Shrinks:       c.shrinks.Load(),
		Collapses:     c.collapses.Load(),
		FloorPins:     c.floorPins.Load(),
	}
}
