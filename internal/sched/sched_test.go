package sched

import (
	"testing"
	"time"

	"sdrad/internal/policy"
)

func manualController(t *testing.T, maxBatch int) (*Controller, *policy.ManualClock) {
	t.Helper()
	mc := &policy.ManualClock{}
	mc.Set(int64(time.Hour))
	c := NewController(Config{Clock: mc.Now}, maxBatch)
	return c, mc
}

func TestControllerStartsAtCeiling(t *testing.T) {
	c, _ := manualController(t, 16)
	if got := c.Bound(); got != 16 {
		t.Fatalf("initial bound = %d, want 16", got)
	}
	if got := c.Snapshot().MaxBatch; got != 16 {
		t.Fatalf("MaxBatch = %d, want 16", got)
	}
}

func TestControllerIdleCollapseTowardOne(t *testing.T) {
	c, mc := manualController(t, 16)
	// Single-item rounds with no backlog: collapse one halving step per
	// IdleRounds (default 2) until the bound reaches 1.
	for i := 0; i < 20; i++ {
		c.ObserveRound(0, 1, 1000)
		mc.Advance(time.Millisecond)
	}
	if got := c.Bound(); got != 1 {
		t.Fatalf("bound after idle rounds = %d, want 1", got)
	}
	if c.Snapshot().Collapses == 0 {
		t.Fatalf("expected collapse steps to be counted")
	}
}

func TestControllerGrowsUnderSustainedBacklog(t *testing.T) {
	c, mc := manualController(t, 16)
	// Collapse first, then show sustained depth.
	for i := 0; i < 20; i++ {
		c.ObserveRound(0, 1, 1000)
	}
	if c.Bound() != 1 {
		t.Fatalf("precondition: bound = %d, want 1", c.Bound())
	}
	for i := 0; i < 30; i++ {
		c.ObserveRound(4, c.Bound(), int64(1000*c.Bound()))
		mc.Advance(time.Millisecond)
	}
	if got := c.Bound(); got != 16 {
		t.Fatalf("bound under sustained backlog = %d, want 16", got)
	}
}

func TestControllerRewindMultiplicativeDecrease(t *testing.T) {
	c, mc := manualController(t, 16)
	c.NoteRewind()
	if got := c.Bound(); got != 8 {
		t.Fatalf("bound after 1 rewind = %d, want 8", got)
	}
	c.NoteRewind()
	c.NoteRewind()
	// Three rewinds in the window: halved each time AND capped at
	// MaxBatch>>3 = 2.
	if got := c.Bound(); got != 2 {
		t.Fatalf("bound after 3 rewinds = %d, want 2", got)
	}
	if got := c.Snapshot().WindowRewinds; got != 3 {
		t.Fatalf("window rewinds = %d, want 3", got)
	}
	// While the window is hot, backlogged rounds must not outgrow the
	// rewind ceiling.
	for i := 0; i < 10; i++ {
		c.ObserveRound(8, c.Bound(), int64(1000*c.Bound()))
		mc.Advance(time.Millisecond)
	}
	if got := c.Bound(); got > 2 {
		t.Fatalf("bound grew to %d under a hot rewind window, cap 2", got)
	}
}

func TestControllerWindowDrainRestoresGrowth(t *testing.T) {
	c, mc := manualController(t, 16)
	c.NoteRewind()
	c.NoteRewind()
	c.NoteRewind()
	mc.Advance(2 * time.Second) // default window is 1s
	for i := 0; i < 30; i++ {
		c.ObserveRound(8, c.Bound(), int64(1000*c.Bound()))
		mc.Advance(time.Millisecond)
	}
	if got := c.Bound(); got != 16 {
		t.Fatalf("bound after window drain = %d, want 16", got)
	}
	if got := c.Snapshot().WindowRewinds; got != 0 {
		t.Fatalf("window rewinds after drain = %d, want 0", got)
	}
}

func TestControllerLatencyBrake(t *testing.T) {
	c, mc := manualController(t, 16)
	// Establish a baseline EWMA with healthy multi-item rounds (keep the
	// backlog nonzero so no idle collapse interferes).
	for i := 0; i < 10; i++ {
		c.ObserveRound(4, 16, 16*1000)
		mc.Advance(time.Millisecond)
	}
	if c.Bound() != 16 {
		t.Fatalf("precondition: bound = %d, want 16", c.Bound())
	}
	// One pathological round: 10x the per-item EWMA.
	c.ObserveRound(4, 16, 16*10_000)
	if got := c.Bound(); got != 8 {
		t.Fatalf("bound after latency spike = %d, want 8", got)
	}
}

func TestControllerClockGoingBackwardsIsClamped(t *testing.T) {
	c, mc := manualController(t, 16)
	c.NoteRewind()
	mc.Set(0) // clock jumps backwards; the monotonic clamp must hold
	c.ObserveRound(1, 1, 1000)
	if got := c.Snapshot().WindowRewinds; got != 1 {
		t.Fatalf("window rewinds after clock jump = %d, want 1 (not pruned, not stuck)", got)
	}
}

func TestControllerAtFloor(t *testing.T) {
	c, mc := manualController(t, 16)
	if c.AtFloor() {
		t.Fatal("fresh controller at ceiling reports AtFloor")
	}
	for i := 0; i < 20; i++ {
		c.ObserveRound(0, 1, 1000)
		mc.Advance(time.Millisecond)
	}
	if !c.AtFloor() {
		t.Fatalf("bound %d after idle collapse, AtFloor = false", c.Bound())
	}
	// A rewind heats the window: the floor fast path must stay off until
	// the window drains, even though the bound is still 1.
	c.NoteRewind()
	if c.AtFloor() {
		t.Fatal("AtFloor with a hot rewind window")
	}
	mc.Advance(2 * time.Second)
	c.ObserveRound(0, 1, 1000)
	if !c.AtFloor() {
		t.Fatal("AtFloor = false after the rewind window drained")
	}
}

func TestControllerFloorPinnedFiresOncePerWindow(t *testing.T) {
	var fired []int64
	clk := int64(time.Hour)
	cfg := Config{
		Clock:         func() int64 { return clk },
		OnFloorPinned: func(ns int64) { fired = append(fired, ns) },
	}
	c := NewController(cfg, 16)
	// Rewinds every 100ms pin the bound at 1 and keep the window hot.
	for i := 0; i < 25; i++ {
		c.NoteRewind()
		clk += int64(100 * time.Millisecond)
	}
	// 25 rewinds over 2.5s with a 1s window: the pin timer arms at the
	// first floor-pinned observation and fires roughly once per second.
	if len(fired) < 1 || len(fired) > 3 {
		t.Fatalf("OnFloorPinned fired %d times over 2.5s, want 1-3", len(fired))
	}
	for _, ns := range fired {
		if ns < int64(time.Second) {
			t.Fatalf("OnFloorPinned pinned duration %dns < window", ns)
		}
	}
	if got := c.Snapshot().FloorPins; got != int64(len(fired)) {
		t.Fatalf("FloorPins counter = %d, want %d", got, len(fired))
	}
	// Window drains: the pin disarms and does not fire again.
	clk += int64(3 * time.Second)
	n := len(fired)
	c.ObserveRound(0, 1, 1000)
	if len(fired) != n {
		t.Fatalf("OnFloorPinned fired after the window drained")
	}
}

func TestControllerIdleCollapseAloneDoesNotFloorPin(t *testing.T) {
	var fired int
	clk := int64(time.Hour)
	cfg := Config{
		Clock:         func() int64 { return clk },
		OnFloorPinned: func(int64) { fired++ },
	}
	c := NewController(cfg, 16)
	// A healthy idle worker parks at bound 1 for many windows; that is
	// not a backoff signal.
	for i := 0; i < 50; i++ {
		c.ObserveRound(0, 1, 1000)
		clk += int64(200 * time.Millisecond)
	}
	if fired != 0 {
		t.Fatalf("OnFloorPinned fired %d times on a rewind-free idle worker", fired)
	}
}
