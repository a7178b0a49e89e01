package chaos

import (
	"strings"
	"testing"
	"time"
)

// A sweep's schedule has one line per fault point — the event, k and the
// outcome — so its hash moves when a request gains or loses a fault point
// or a point changes its outcome. Move a pin or a point count only with a
// change that means to move that schedule, and say why in its
// description.

func TestSweepMemcache(t *testing.T) {
	t.Parallel()
	testSweep(t, &memcacheSweep, 539, 0xf38a447bb850a25f)
}

func TestSweepHTTPD(t *testing.T) {
	t.Parallel()
	testSweep(t, &httpdSweep, 204, 0xdde662ba2faa9427)
}

// testSweep runs spec once and holds it to its contract: every point
// passes, the sweep judges points points and keeps its pinned schedule
// hash, every injected fault was absorbed exactly once, and the audits
// ran.
func testSweep(t *testing.T, spec *sweepSpec, points int, hash uint64) {
	start := time.Now()
	r, err := spec.run()
	t.Logf("%d fault points in %v", r.Points, time.Since(start).Round(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(r.Failures); n > 0 {
		first := r.Failures[:min(n, 20)]
		t.Errorf("%d failures, the first %d:\n  %s", n, len(first), strings.Join(first, "\n  "))
	}
	if r.Points != points {
		t.Errorf("%d fault points judged, want %d", r.Points, points)
	}
	if got := r.ScheduleHash(); got != hash {
		t.Errorf("schedule %016x, pinned %016x", got, hash)
	}
	if r.Injected == 0 || r.Injected != r.Absorbed {
		t.Errorf("injected %d faults, absorbed %d rewinds: want equal and nonzero", r.Injected, r.Absorbed)
	}
	if r.Audits == 0 {
		t.Error("no invariant audits ran")
	}
}
