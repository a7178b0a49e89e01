package sched

// Placement scores workers at connection-accept time from queue depth,
// EWMA per-item service latency and rewind-window heat. No server calls
// it — every accept path is a round-robin cursor (EXPERIMENTS.md E18) —
// and it stays, with its tests, only because benchmark/ times
// PlacementPick and could not be edited in the change that removed the
// callers. Delete this file together with that probe.

// WorkerLoad is one worker's placement inputs.
type WorkerLoad struct {
	// Queue is the worker's pending event count (channel depths).
	Queue int
	// EWMAItemNs is the controller's published per-item service latency
	// estimate (0 until the worker has drained a round).
	EWMAItemNs int64
	// WindowRewinds is the live rewind count inside the controller's
	// sliding window — the "this worker is absorbing faults" signal.
	WindowRewinds int
}

// placementDefaultItemNs stands in for an unmeasured worker's service
// latency so queue depth still differentiates workers before any EWMA
// exists (a fresh worker scores as cheap, which is what we want).
const placementDefaultItemNs = 1000

// placementRewindCap bounds the rewind penalty exponent so the score
// stays well inside int64 even under a pathological window.
const placementRewindCap = 6

// PlacementScore is the estimated cost of adding one connection to a
// worker: expected queueing delay (depth × per-item latency) inflated
// 2× per live window rewind — a rewind-storming worker is about to
// discard and retry work, so its effective service rate is far below
// its EWMA.
func PlacementScore(l WorkerLoad) int64 {
	item := l.EWMAItemNs
	if item < placementDefaultItemNs {
		item = placementDefaultItemNs
	}
	pen := l.WindowRewinds
	if pen > placementRewindCap {
		pen = placementRewindCap
	}
	return int64(l.Queue+1) * item << uint(pen)
}

// PlacementPick returns the index of the lowest-score worker. Ties are
// broken by scanning from (tie mod len) so equally calm workers are
// filled round-robin rather than always worker 0 — under no load the
// pick sequence degenerates to exactly the round-robin order.
func PlacementPick(loads []WorkerLoad, tie int) int {
	if len(loads) == 0 {
		return 0
	}
	n := len(loads)
	start := tie % n
	if start < 0 {
		start += n
	}
	best := start
	bestScore := PlacementScore(loads[start])
	for i := 1; i < n; i++ {
		idx := (start + i) % n
		if s := PlacementScore(loads[idx]); s < bestScore {
			best, bestScore = idx, s
		}
	}
	return best
}
