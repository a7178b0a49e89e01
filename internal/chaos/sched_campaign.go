package chaos

import (
	"fmt"
	"time"

	"sdrad/internal/memcache"
	"sdrad/internal/policy"
	"sdrad/internal/proc"
	"sdrad/internal/sched"
)

// runSchedCampaign drives the adaptive drain bound through its three
// contracts under a hand-advanced clock, so every controller decision is
// a deterministic function of the seed:
//
//  1. A fault burst walks the bound down multiplicatively from the
//     MaxBatch ceiling; every trap rewinds exactly once and produces
//     exactly one forensics report agreeing with the MMU fault log.
//  2. While the rewind window is hot its ceiling pins the bound to the
//     floor: a queued backlog drains one event per guard scope and
//     cannot grow it.
//  3. Once the window drains (manual-clock advance) a queued backlog
//     grows the bound back up: the collapse is a response to faults,
//     not a ratchet.
//
// Backlogs are staged behind a parked worker (the Inspect trick) and
// fit inside the event-queue buffer, so each drain round's composition
// — and with the frozen clock, each controller decision — is exact.
func runSchedCampaign(cfg Config, r *Report) error {
	const maxBatch = 16
	clk := &policy.ManualClock{}
	w, s, err := newMemcache(cfg, r, memcache.Config{MaxBatch: maxBatch, Clock: clk.Now})
	if err != nil {
		return err
	}
	defer s.Stop()

	snap := func() sched.Snapshot { return s.SchedSnapshots()[0] }
	// park blocks the worker inside an inspect event and returns the
	// release function; everything queued before release is drained in
	// deterministic rounds afterwards.
	park := func() (release func() error) {
		rel := make(chan struct{})
		started := make(chan struct{})
		parkErr := make(chan error, 1)
		go func() {
			parkErr <- w.inspect(func(*proc.Thread) error {
				close(started)
				<-rel
				return nil
			})
		}()
		<-started
		return func() error { close(rel); return <-parkErr }
	}
	// driveBacklog starts n single-get events behind a parked worker —
	// Start returns once its event is queued, so n sequential calls are
	// the whole staging — and releases them as one backlog. With every
	// event queued before the drain starts, the controller's growth walk
	// is exact: each round drains min(bound, remaining) events.
	driveBacklog := func(label string, n, wantBound, wantGrows int) error {
		release := park()
		pending := make([]*proc.Pending[*memcache.Conn], n)
		for i := range pending {
			pending[i] = s.NewConn().Start(memcache.FormatGet(fmt.Sprintf("rc-%02d", i)))
		}
		preGrows := snap().Grows
		if err := release(); err != nil {
			return fmt.Errorf("chaos: sched park: %v", err)
		}
		for i, h := range pending {
			if res := h.Wait()[0]; res.Err != nil || res.Closed {
				r.failf("%s: get %d: closed=%v err=%v", label, i, res.Closed, res.Err)
			}
		}
		ss := snap()
		if ss.Bound != wantBound {
			r.failf("%s: bound=%d after %d-event backlog, want %d", label, ss.Bound, n, wantBound)
		}
		if d := ss.Grows - preGrows; d != int64(wantGrows) {
			r.failf("%s: %d additive grows, want %d", label, d, wantGrows)
		}
		r.event("%s backlog=%d bound=%d grows=+%d", label, n, ss.Bound, ss.Grows-preGrows)
		return nil
	}

	// ---- Phase 1: fault burst. Four traps in the same frozen window
	// walk the bound down from the ceiling and pin it to the floor. (A
	// lone trap is also an idle round, so the walk interleaves the
	// multiplicative decrease with the idle collapse; the frozen clock
	// makes the interleaving exact.)
	for k := 0; k < 4; k++ {
		label := fmt.Sprintf("phase=burst trap=%d", k)
		w.trap(label, memcache.FormatBSet("atk", 1<<20, nil), false)
		r.event("%s bound=%d rewinds=%d", label, snap().Bound, snap().WindowRewinds)
	}
	ss := snap()
	if ss.Bound != 1 || ss.WindowRewinds != 4 {
		r.failf("phase=burst: controller bound=%d windowRewinds=%d, want bound=1 windowRewinds=4",
			ss.Bound, ss.WindowRewinds)
	}
	w.audit("phase=burst")

	// ---- Phase 2: hot window. Four rewinds in the window cap the bound
	// at MaxBatch>>4 = 1, so an 8-event backlog drains as eight guard
	// scopes of one and the bound does not move.
	if err := driveBacklog("phase=pinned", 8, 1, 0); err != nil {
		return err
	}
	w.audit("phase=pinned")

	// ---- Phase 3: recovery. Advance the manual clock past the rewind
	// window, then queue another backlog: with the window cold the
	// controller must grow the bound back out of the floor
	// (1->2->3->4->5 across the 12-event drain).
	clk.Advance(2 * time.Second)
	if err := driveBacklog("phase=recover", 12, 5, 4); err != nil {
		return err
	}
	ss = snap()
	if ss.WindowRewinds != 0 {
		r.failf("phase=recover: rewind window still holds %d entries after 2s advance", ss.WindowRewinds)
	}
	w.audit("phase=recover")

	if crashed, cause := w.crashed(); crashed {
		return fmt.Errorf("chaos: server process died: %v", cause)
	}
	r.event("final rewinds=%d bound=%d", w.lib.Stats().Rewinds.Load(), snap().Bound)
	return nil
}
