package sched

import "testing"

func TestPlacementPickPrefersCalmWorker(t *testing.T) {
	loads := []WorkerLoad{
		{Queue: 8, EWMAItemNs: 2000},
		{Queue: 0, EWMAItemNs: 2000},
		{Queue: 8, EWMAItemNs: 2000},
	}
	if got := PlacementPick(loads, 0); got != 1 {
		t.Fatalf("pick = %d, want the empty-queue worker 1", got)
	}
}

func TestPlacementPickAvoidsRewindHotWorker(t *testing.T) {
	// Same queue depth and latency everywhere, but worker 0 has a hot
	// rewind window: the 2x-per-rewind penalty must steer away from it
	// even from a tie-cursor that would otherwise land there.
	loads := []WorkerLoad{
		{Queue: 2, EWMAItemNs: 1500, WindowRewinds: 3},
		{Queue: 2, EWMAItemNs: 1500},
	}
	if got := PlacementPick(loads, 0); got != 1 {
		t.Fatalf("pick = %d, want the rewind-free worker 1", got)
	}
	if got := PlacementPick(loads, 1); got != 1 {
		t.Fatalf("pick from tie=1 = %d, want 1", got)
	}
}

func TestPlacementPickWeighsLatencyAgainstDepth(t *testing.T) {
	// A deep queue on a fast worker can still beat a shallow queue on a
	// slow one: 3 items x 1µs < 2 items x 10µs.
	loads := []WorkerLoad{
		{Queue: 2, EWMAItemNs: 10_000},
		{Queue: 1, EWMAItemNs: 10_000},
	}
	if got := PlacementPick(loads, 0); got != 1 {
		t.Fatalf("pick = %d, want shallower worker 1", got)
	}
	loads[1].EWMAItemNs = 50_000
	if got := PlacementPick(loads, 0); got != 0 {
		t.Fatalf("pick = %d, want faster worker 0 despite deeper queue", got)
	}
}

func TestPlacementPickTieBreaksRoundRobin(t *testing.T) {
	// Idle cluster: all scores equal, so the tie cursor must reproduce
	// the legacy round-robin fill order exactly.
	loads := make([]WorkerLoad, 4)
	for tie := 0; tie < 12; tie++ {
		if got := PlacementPick(loads, tie); got != tie%4 {
			t.Fatalf("idle tie=%d pick = %d, want %d", tie, got, tie%4)
		}
	}
}

func TestPlacementPickEmptyAndNegativeTie(t *testing.T) {
	if got := PlacementPick(nil, 3); got != 0 {
		t.Fatalf("empty loads pick = %d, want 0", got)
	}
	loads := make([]WorkerLoad, 3)
	if got := PlacementPick(loads, -5); got < 0 || got >= 3 {
		t.Fatalf("negative tie pick = %d out of range", got)
	}
}

func TestPlacementScoreRewindPenaltyCapped(t *testing.T) {
	l := WorkerLoad{Queue: 1000, EWMAItemNs: 1 << 40, WindowRewinds: 1000}
	if s := PlacementScore(l); s <= 0 {
		t.Fatalf("pathological load overflowed the score: %d", s)
	}
}
