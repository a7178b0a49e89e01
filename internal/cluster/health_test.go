package cluster

import (
	"testing"
	"time"

	"sdrad/internal/policy"
)

func newTestHealth(names ...string) (*Health, *policy.ManualClock) {
	mc := &policy.ManualClock{}
	h := NewHealth(names, HealthConfig{
		FailThreshold: 3,
		HoldOff:       time.Second,
		HoldOffMax:    8 * time.Second,
		ProbationOKs:  2,
		RewindRate:    50,
		Clock:         mc.Now,
	})
	return h, mc
}

func TestHealthFailureLadder(t *testing.T) {
	h, mc := newTestHealth("b0", "b1")

	// Two failures: still up (threshold 3); a success resets the streak.
	h.ReportFailure(0, "io")
	h.ReportFailure(0, "io")
	if !h.Admitted(0) {
		t.Fatal("demoted below FailThreshold")
	}
	h.ReportOK(0)
	h.ReportFailure(0, "io")
	h.ReportFailure(0, "io")
	if !h.Admitted(0) {
		t.Fatal("success did not reset the failure streak")
	}
	// Third consecutive failure demotes.
	h.ReportFailure(0, "io")
	if h.Admitted(0) {
		t.Fatal("not demoted at FailThreshold")
	}
	if h.State(1) != HealthUp {
		t.Fatal("sibling backend affected")
	}

	// Hold-off not yet served.
	mc.Advance(999 * time.Millisecond)
	if h.Admitted(0) {
		t.Fatal("admitted before hold-off expired")
	}
	// Hold-off served: probation readmit on the next routing decision.
	mc.Advance(2 * time.Millisecond)
	if !h.Admitted(0) {
		t.Fatal("not readmitted after hold-off")
	}
	if h.State(0) != HealthProbation {
		t.Fatalf("state %v after readmit, want probation", h.State(0))
	}

	// One strike on probation re-demotes with a doubled hold-off.
	h.ReportFailure(0, "io")
	if h.Admitted(0) {
		t.Fatal("probation strike did not re-demote")
	}
	mc.Advance(1500 * time.Millisecond)
	if h.Admitted(0) {
		t.Fatal("second hold-off not doubled")
	}
	mc.Advance(600 * time.Millisecond)
	if !h.Admitted(0) {
		t.Fatal("not readmitted after doubled hold-off")
	}

	// Probation served: ProbationOKs successes promote to Up and reset
	// the exponential ladder.
	h.ReportOK(0)
	h.ReportOK(0)
	if h.State(0) != HealthUp {
		t.Fatalf("state %v after probation served, want up", h.State(0))
	}
	snap := h.Snapshot()
	if snap[0].Demotions != 2 || snap[0].Readmissions != 2 {
		t.Fatalf("snapshot counters %+v, want 2 demotions / 2 readmissions", snap[0])
	}
}

func TestHealthTelemetryDemotion(t *testing.T) {
	h, mc := newTestHealth("b0", "b1", "b2")

	// A backend reporting policy state backoff-or-worse demotes at once.
	h.ObserveTelemetry(1, BackendTelemetry{WorstPolicyState: 2})
	if h.State(1) != HealthDemoted {
		t.Fatal("quarantined policy state did not demote")
	}

	// Rewind rate above threshold demotes; rate needs two polls.
	h.ObserveTelemetry(2, BackendTelemetry{Rewinds: 100, WorstPolicyState: -1})
	if h.State(2) != HealthUp {
		t.Fatal("first poll (no rate yet) demoted")
	}
	mc.Advance(time.Second)
	h.ObserveTelemetry(2, BackendTelemetry{Rewinds: 200, WorstPolicyState: -1})
	if h.State(2) != HealthDemoted {
		t.Fatal("100 rewinds/s did not demote at threshold 50")
	}

	// A healthy-looking poll must NOT readmit early: recovery goes
	// through the hold-off + probation, like policy's cool-down.
	h.ObserveTelemetry(1, BackendTelemetry{WorstPolicyState: 0})
	if h.State(1) != HealthDemoted {
		t.Fatal("optimistic poll readmitted a demoted backend early")
	}
	// Benign telemetry on the healthy backend changes nothing.
	h.ObserveTelemetry(0, BackendTelemetry{Rewinds: 3, WorstPolicyState: 0})
	if h.State(0) != HealthUp {
		t.Fatal("benign telemetry demoted a healthy backend")
	}
}

func TestParseMetricsJSON(t *testing.T) {
	body := []byte(`{
		"sdrad_rewinds_total": {"SEGV_PKUERR": 5, "STACK_CHK": 2},
		"sdrad_policy_state": {"4": 2, "5": 0},
		"sdrad_memcache_requests_total": 12345
	}`)
	bt, err := ParseMetricsJSON(body)
	if err != nil {
		t.Fatal(err)
	}
	if bt.Rewinds != 7 {
		t.Errorf("rewinds %v, want 7", bt.Rewinds)
	}
	if bt.WorstPolicyState != 2 {
		t.Errorf("worst policy state %d, want 2", bt.WorstPolicyState)
	}
	// No policy metrics: state reports -1 (unknown), not healthy.
	bt, err = ParseMetricsJSON([]byte(`{"sdrad_rewinds_total": 3}`))
	if err != nil {
		t.Fatal(err)
	}
	if bt.Rewinds != 3 || bt.WorstPolicyState != -1 {
		t.Errorf("got %+v, want rewinds 3 / state -1", bt)
	}
	if _, err := ParseMetricsJSON([]byte("not json")); err == nil {
		t.Error("malformed snapshot accepted")
	}
}
