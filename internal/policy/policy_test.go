package policy

import (
	"sync"
	"testing"
	"time"

	"sdrad/internal/telemetry"
)

// testConfig is a compact ladder used throughout: 3 rewinds in a 100ms
// window → backoff, 5 → quarantine, 8 → shed; 10ms base hold-off capped
// at 40ms; 50ms cool-down.
func testConfig(clk *ManualClock) Config {
	return Config{
		Window:              100 * time.Millisecond,
		BackoffThreshold:    3,
		QuarantineThreshold: 5,
		ShedThreshold:       8,
		BackoffBase:         10 * time.Millisecond,
		BackoffMax:          40 * time.Millisecond,
		Cooldown:            50 * time.Millisecond,
		Clock:               clk.Now,
	}
}

func TestConfigDefaults(t *testing.T) {
	e := New(Config{})
	cfg := e.Config()
	if cfg.Window != time.Second {
		t.Errorf("Window default = %v, want 1s", cfg.Window)
	}
	if cfg.BackoffThreshold != 3 || cfg.QuarantineThreshold != 6 || cfg.ShedThreshold != 12 {
		t.Errorf("threshold defaults = %d/%d/%d, want 3/6/12",
			cfg.BackoffThreshold, cfg.QuarantineThreshold, cfg.ShedThreshold)
	}
	if cfg.BackoffBase != time.Millisecond || cfg.BackoffMax != 100*time.Millisecond {
		t.Errorf("backoff defaults = %v/%v", cfg.BackoffBase, cfg.BackoffMax)
	}
	if cfg.Cooldown != time.Second {
		t.Errorf("Cooldown default = %v, want 1s", cfg.Cooldown)
	}
	// Negative disables shedding: the engine never leaves quarantine.
	e = New(Config{ShedThreshold: -1})
	if e.Config().ShedThreshold != 0 {
		t.Errorf("ShedThreshold(-1) = %d, want 0 (disabled)", e.Config().ShedThreshold)
	}
}

// TestLadderWalk drives one UDI through the full escalation ladder with
// a scripted op sequence and checks every decision — the same shape
// core's TestPolicyLadderWhileASiblingServes asserts end to end.
func TestLadderWalk(t *testing.T) {
	type step struct {
		op      string // "rewind", "admit", "advance"
		d       time.Duration
		action  Action
		state   State
		winN    int   // -1 to skip
		retryNs int64 // -1 to skip
	}
	steps := []step{
		// Two rewinds inside budget.
		{op: "rewind", action: ActionRewind, state: StateHealthy, winN: 1},
		{op: "admit", action: ActionNone, state: StateHealthy, winN: 1},
		{op: "rewind", action: ActionRewind, state: StateHealthy, winN: 2},
		// Third trips backoff: hold-off = base (10ms).
		{op: "rewind", action: ActionBackoff, state: StateBackoff, winN: 3,
			retryNs: int64(10 * time.Millisecond)},
		// Admission denied during the hold-off.
		{op: "admit", action: ActionDeny, state: StateBackoff,
			retryNs: int64(10 * time.Millisecond)},
		{op: "advance", d: 4 * time.Millisecond},
		{op: "admit", action: ActionDeny, state: StateBackoff,
			retryNs: int64(6 * time.Millisecond)},
		// Hold-off expires with rewinds still in the window: readmitted,
		// but still Backoff.
		{op: "advance", d: 6 * time.Millisecond},
		{op: "admit", action: ActionReadmit, state: StateBackoff, winN: 3},
		// Fourth rewind doubles the hold-off (20ms).
		{op: "rewind", action: ActionBackoff, state: StateBackoff, winN: 4,
			retryNs: int64(20 * time.Millisecond)},
		{op: "advance", d: 20 * time.Millisecond},
		{op: "admit", action: ActionReadmit, state: StateBackoff},
		// Fifth crosses the quarantine threshold.
		{op: "rewind", action: ActionQuarantine, state: StateQuarantined, winN: 5,
			retryNs: int64(50 * time.Millisecond)},
		{op: "admit", action: ActionDeny, state: StateQuarantined,
			retryNs: int64(50 * time.Millisecond)},
		// Cool-down expires → probation readmit into Backoff.
		{op: "advance", d: 50 * time.Millisecond},
		{op: "admit", action: ActionReadmit, state: StateBackoff},
		// A rewind right after probation re-quarantines (count 6 is
		// still over the threshold — nothing has left the window yet).
		{op: "rewind", action: ActionQuarantine, state: StateQuarantined, winN: 6},
		{op: "advance", d: 50 * time.Millisecond},
		{op: "admit", action: ActionReadmit, state: StateBackoff},
		// 130ms have now elapsed: the two cool-downs drained every entry
		// older than now-100ms, leaving only the last quarantine's
		// rewind. The next rewind is back under the backoff threshold —
		// absorbed normally — but the domain stays on probation
		// (Backoff) until an Admit observes a drained window.
		{op: "rewind", action: ActionRewind, state: StateBackoff, winN: 2},
		// Hammer without advancing the clock: the ladder re-escalates
		// deterministically — backoff (hold-off now at the 40ms cap,
		// step 3), quarantine at 5, shed at 8.
		{op: "rewind", action: ActionBackoff, state: StateBackoff, winN: 3},
		{op: "rewind", action: ActionBackoff, state: StateBackoff, winN: 4},
		{op: "rewind", action: ActionQuarantine, state: StateQuarantined, winN: 5},
		{op: "rewind", action: ActionQuarantine, state: StateQuarantined, winN: 6},
		{op: "rewind", action: ActionQuarantine, state: StateQuarantined, winN: 7},
		{op: "rewind", action: ActionShed, state: StateShedding, winN: 8},
		// Shedding is permanent: denial with no retry hint, rewinds keep
		// reporting shed.
		{op: "admit", action: ActionDeny, state: StateShedding, retryNs: 0},
		{op: "advance", d: time.Hour},
		{op: "admit", action: ActionDeny, state: StateShedding, retryNs: 0},
		{op: "rewind", action: ActionShed, state: StateShedding},
	}

	clk := &ManualClock{}
	e := New(testConfig(clk))
	const udi = 7
	for i, s := range steps {
		var dec Decision
		switch s.op {
		case "advance":
			clk.Advance(s.d)
			continue
		case "rewind":
			dec = e.OnRewind(udi)
		case "admit":
			dec = e.Admit(udi)
		}
		if dec.Action != s.action {
			t.Fatalf("step %d (%s): action = %v, want %v (dec=%+v)", i, s.op, dec.Action, s.action, dec)
		}
		if dec.State != s.state {
			t.Fatalf("step %d (%s): state = %v, want %v", i, s.op, dec.State, s.state)
		}
		if s.winN > 0 && dec.WindowCount != s.winN {
			t.Fatalf("step %d (%s): window count = %d, want %d", i, s.op, dec.WindowCount, s.winN)
		}
		if s.retryNs >= 0 && s.op != "rewind" && dec.RetryAfterNs != s.retryNs {
			t.Fatalf("step %d (%s): retry-after = %d, want %d", i, s.op, dec.RetryAfterNs, s.retryNs)
		}
	}
}

// TestWindowBoundary pins the prune semantics: an entry recorded at T is
// outside the window exactly at T+Window (closed left edge), not one
// nanosecond later.
func TestWindowBoundary(t *testing.T) {
	clk := &ManualClock{}
	e := New(testConfig(clk))
	const udi = 1

	e.OnRewind(udi) // T = 1
	e.OnRewind(udi) // still T = 1, window count 2

	clk.Advance(100 * time.Millisecond) // now = T + Window
	if dec := e.OnRewind(udi); dec.WindowCount != 1 {
		t.Fatalf("at T+Window: count = %d, want 1 (both old entries pruned)", dec.WindowCount)
	}

	// An entry one tick inside the window survives.
	clk.Advance(100*time.Millisecond - 1)
	if dec := e.OnRewind(udi); dec.WindowCount != 2 {
		t.Fatalf("at T'+Window-1: count = %d, want 2", dec.WindowCount)
	}
}

// TestClockSkew feeds the engine a clock that jumps backwards and checks
// the monotonic clamp: decisions never un-order and hold-offs never go
// negative.
func TestClockSkew(t *testing.T) {
	clk := &ManualClock{}
	e := New(testConfig(clk))
	const udi = 3

	clk.Set(int64(time.Second))
	for i := 0; i < 3; i++ {
		e.OnRewind(udi)
	}
	// Engine is in backoff with deniedUntil = 1s + 10ms. Rewind the
	// clock source by half a second.
	clk.Set(int64(500 * time.Millisecond))
	dec := e.Admit(udi)
	if dec.Action != ActionDeny {
		t.Fatalf("after skew: action = %v, want deny", dec.Action)
	}
	if dec.RetryAfterNs <= 0 || dec.RetryAfterNs > int64(10*time.Millisecond) {
		t.Fatalf("after skew: retry-after = %d, want (0, 10ms]", dec.RetryAfterNs)
	}
	if dec.TimeNs < int64(time.Second) {
		t.Fatalf("decision time went backwards: %d", dec.TimeNs)
	}
	// The skewed source can stall the ladder but time never reverses:
	// advancing the source past the clamp resumes normally.
	clk.Set(int64(2 * time.Second))
	if dec := e.Admit(udi); dec.Action != ActionReadmit {
		t.Fatalf("after recovery: action = %v, want readmit", dec.Action)
	}
}

// TestBackoffCap checks the exponential hold-off sequence and its cap.
func TestBackoffCap(t *testing.T) {
	clk := &ManualClock{}
	e := New(testConfig(clk))
	want := []int64{
		int64(10 * time.Millisecond),
		int64(20 * time.Millisecond),
		int64(40 * time.Millisecond),
		int64(40 * time.Millisecond), // capped
		int64(40 * time.Millisecond),
	}
	for i, w := range want {
		if got := e.backoffHold(i + 1); got != w {
			t.Errorf("backoffHold(%d) = %d, want %d", i+1, got, w)
		}
	}
	// A pathological step count must not overflow into a negative hold.
	if got := e.backoffHold(200); got != int64(40*time.Millisecond) {
		t.Errorf("backoffHold(200) = %d, want cap", got)
	}
}

// TestWindowDrainResetsToHealthy: a backoff domain whose window empties
// during the hold-off returns to Healthy with its step counter reset.
func TestWindowDrainResetsToHealthy(t *testing.T) {
	clk := &ManualClock{}
	e := New(testConfig(clk))
	const udi = 2
	for i := 0; i < 3; i++ {
		e.OnRewind(udi)
	}
	clk.Advance(200 * time.Millisecond) // hold-off over AND window drained
	dec := e.Admit(udi)
	if dec.Action != ActionReadmit || dec.State != StateHealthy {
		t.Fatalf("drained readmit = %v/%v, want readmit/healthy", dec.Action, dec.State)
	}
	snap := e.Snapshot()
	if len(snap) != 1 || snap[0].BackoffStep != 0 {
		t.Fatalf("snapshot after drain = %+v, want backoff_step 0", snap)
	}
	// The next burst starts the ladder from the base hold-off again.
	for i := 0; i < 2; i++ {
		e.OnRewind(udi)
	}
	if dec := e.OnRewind(udi); dec.RetryAfterNs != int64(10*time.Millisecond) {
		t.Fatalf("post-reset hold-off = %d, want base", dec.RetryAfterNs)
	}
}

// TestPerUDIIsolation: one UDI's escalation never leaks into a sibling.
func TestPerUDIIsolation(t *testing.T) {
	clk := &ManualClock{}
	e := New(testConfig(clk))
	for i := 0; i < 8; i++ {
		e.OnRewind(1)
	}
	if dec := e.Admit(1); dec.State != StateShedding {
		t.Fatalf("udi 1 state = %v, want shedding", dec.State)
	}
	if dec := e.Admit(2); !dec.Allowed() || dec.State != StateHealthy {
		t.Fatalf("udi 2 = %+v, want healthy/allowed", dec)
	}
	if dec := e.OnRewind(2); dec.Action != ActionRewind {
		t.Fatalf("udi 2 rewind = %v, want plain rewind", dec.Action)
	}
}

// TestReadmitCountedOnce: once a hold-off has expired, only the admission
// that reopens it is a readmission. The monitor admits every guard scope,
// so the ones after it must not add to the counter or write a flight
// event each — that would flood the ring forensics read.
func TestReadmitCountedOnce(t *testing.T) {
	clk := &ManualClock{}
	cfg := testConfig(clk)
	cfg.BackoffThreshold = 2
	e := New(cfg)
	rec := telemetry.New(telemetry.Options{})
	e.AttachTelemetry(rec)
	e.OnRewind(1)
	e.OnRewind(1)
	clk.Advance(cfg.BackoffBase)
	for i := 0; i < 5; i++ {
		want := ActionNone
		if i == 0 {
			want = ActionReadmit
		}
		if dec := e.Admit(1); dec.Action != want || dec.State != StateBackoff {
			t.Fatalf("admit %d = %v/%v, want %v/backoff", i, dec.Action, dec.State, want)
		}
	}
	snap := rec.Registry().SnapshotJSON()
	if v, _ := snap["sdrad_policy_readmissions_total"].(int64); v != 1 {
		t.Errorf("sdrad_policy_readmissions_total = %v, want 1", snap["sdrad_policy_readmissions_total"])
	}
	var events int
	for _, ev := range rec.Flight().Snapshot() {
		if ev.Kind == "policy" {
			events++
		}
	}
	if events != 1 {
		t.Errorf("policy flight events = %d, want 1", events)
	}
	// A new hold re-arms the readmission.
	e.OnRewind(1)
	clk.Advance(time.Duration(cfg.BackoffMax))
	if dec := e.Admit(1); dec.Action != ActionReadmit {
		t.Fatalf("admit after a new hold = %v, want readmit", dec.Action)
	}
}

// TestTelemetryMirroring checks the metric families an attached recorder
// accumulates across a full ladder walk.
func TestTelemetryMirroring(t *testing.T) {
	clk := &ManualClock{}
	e := New(testConfig(clk))
	rec := telemetry.New(telemetry.Options{})
	e.AttachTelemetry(rec)

	const udi = 4
	for i := 0; i < 5; i++ {
		e.OnRewind(udi) // 3rd → backoff, 5th → quarantine
	}
	e.Admit(udi) // deny (cool-down running)
	clk.Advance(60 * time.Millisecond)
	e.Admit(udi) // readmit

	snap := rec.Registry().SnapshotJSON()
	if st, _ := snap["sdrad_policy_state"].(map[string]int64); st["4"] != int64(StateBackoff) {
		t.Errorf("sdrad_policy_state{4} = %v, want backoff", snap["sdrad_policy_state"])
	}
	// The counter is per backoff *decision*: the 3rd rewind trips
	// backoff and the 4th extends it — two backoff actions.
	if esc, _ := snap["sdrad_policy_escalations_total"].(map[string]int64); esc["backoff"] != 2 || esc["quarantine"] != 1 {
		t.Errorf("sdrad_policy_escalations_total = %v, want backoff:2 quarantine:1", snap["sdrad_policy_escalations_total"])
	}
	if v, _ := snap["sdrad_policy_denials_total"].(int64); v != 1 {
		t.Errorf("sdrad_policy_denials_total = %v, want 1", snap["sdrad_policy_denials_total"])
	}
	if v, _ := snap["sdrad_policy_readmissions_total"].(int64); v != 1 {
		t.Errorf("sdrad_policy_readmissions_total = %v, want 1", snap["sdrad_policy_readmissions_total"])
	}
}

// TestConcurrentHammer exercises the engine from many goroutines (run
// with -race): correctness here is "no race, no panic, totals add up".
func TestConcurrentHammer(t *testing.T) {
	e := New(Config{Window: time.Hour, ShedThreshold: -1})
	rec := telemetry.New(telemetry.Options{})
	e.AttachTelemetry(rec)
	const (
		goroutines = 8
		iters      = 200
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			udi := g % 4
			for i := 0; i < iters; i++ {
				e.OnRewind(udi)
				e.Admit(udi)
				if i%32 == 0 {
					e.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for _, snap := range e.Snapshot() {
		total += snap.TotalRewinds
	}
	if want := int64(goroutines * iters); total != want {
		t.Fatalf("total rewinds = %d, want %d", total, want)
	}
}

// TestSnapshotFields pins the JSON-facing snapshot shape.
func TestSnapshotFields(t *testing.T) {
	clk := &ManualClock{}
	e := New(testConfig(clk))
	for i := 0; i < 3; i++ {
		e.OnRewind(9)
	}
	e.OnRewind(2)
	snaps := e.Snapshot()
	if len(snaps) != 2 || snaps[0].UDI != 2 || snaps[1].UDI != 9 {
		t.Fatalf("snapshot order = %+v, want UDIs [2 9]", snaps)
	}
	s := snaps[1]
	if s.State != "backoff" || s.WindowCount != 3 || s.BackoffStep != 1 ||
		s.TotalRewinds != 3 || s.Escalations != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.DeniedForNs != int64(10*time.Millisecond) {
		t.Fatalf("denied_for = %d, want 10ms", s.DeniedForNs)
	}
}
