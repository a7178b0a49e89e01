package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"sdrad/internal/policy"
)

// HealthState is a backend's position on the router's fleet-level
// ladder, mirroring internal/policy's domain ladder one level up: a
// healthy backend serves its keys, a demoted backend's keys spill to
// ring successors, and a demoted backend is readmitted *on probation* —
// it gets traffic again, but the next strike within the probation
// window re-demotes it with a doubled hold-off instead of restarting
// the ladder from scratch.
type HealthState int

// Ladder states.
const (
	// HealthUp: the backend serves its key range.
	HealthUp HealthState = iota
	// HealthProbation: readmitted after a demotion; serving, but one
	// strike re-demotes with a doubled hold-off.
	HealthProbation
	// HealthDemoted: not serving; keys spill to ring successors until
	// the hold-off expires.
	HealthDemoted
)

func (s HealthState) String() string {
	switch s {
	case HealthUp:
		return "up"
	case HealthProbation:
		return "probation"
	case HealthDemoted:
		return "demoted"
	default:
		return "unknown"
	}
}

// HealthConfig parameterizes the watcher. The zero value gets defaults
// suited to the simulated backends.
type HealthConfig struct {
	// FailThreshold is the consecutive I/O-failure count that demotes a
	// backend (default 3). Telemetry-driven demotions (policy state,
	// rewind rate) are immediate.
	FailThreshold int
	// HoldOff is the first demotion's duration; each re-demotion from
	// probation doubles it, capped at HoldOffMax (defaults 1s / 30s).
	HoldOff    time.Duration
	HoldOffMax time.Duration
	// ProbationOKs is the consecutive-success count that promotes a
	// probationary backend back to Up (default 8).
	ProbationOKs int
	// RewindRate is the telemetry-observed rewinds/second above which a
	// backend is demoted (default 50; <= 0 disables the rate check).
	RewindRate float64
	// Clock supplies monotonic nanoseconds; nil uses the wall clock.
	// The router tests install a policy.ManualClock so demotion and
	// readmission are deterministic functions of the requests they send.
	Clock func() int64
}

func (c *HealthConfig) setDefaults() {
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.HoldOff <= 0 {
		c.HoldOff = time.Second
	}
	if c.HoldOffMax <= 0 {
		c.HoldOffMax = 30 * time.Second
	}
	if c.ProbationOKs <= 0 {
		c.ProbationOKs = 8
	}
	if c.RewindRate == 0 {
		c.RewindRate = 50
	}
}

// backendHealth is one backend's ladder position.
type backendHealth struct {
	state HealthState
	// consecFails counts consecutive I/O failures while Up; consecOKs
	// counts consecutive successes while on probation.
	consecFails int
	consecOKs   int
	// demotedUntil is when a demoted backend becomes eligible for
	// probation readmission.
	demotedUntil int64
	// holdOffStep counts demotions since the backend last earned Up, for
	// the exponential hold-off.
	holdOffStep int
	// reason labels the live demotion for metrics and dumps.
	reason string
	// telemetry poll deltas: last observed cumulative rewind count and
	// poll timestamp, for the rewind-rate estimate.
	lastRewinds  float64
	lastPollNs   int64
	pollsSeen    int64
	demotions    int64
	readmissions int64
}

// Health tracks every backend's ladder state. It is consulted on the
// hot path (Admitted) and mutated by I/O outcome reports and telemetry
// polls, all under one mutex: Admitted itself readmits a backend whose
// hold-off has expired, so it is a writer too.
type Health struct {
	cfg   HealthConfig
	names []string

	mu       sync.Mutex
	backends []backendHealth
	lastNow  int64

	// onChange, when non-nil, hears every state transition (router
	// metrics and chaos schedules).
	onChange func(backend int, from, to HealthState, reason string)
}

// NewHealth builds a tracker for the named backends, all starting Up.
func NewHealth(names []string, cfg HealthConfig) *Health {
	cfg.setDefaults()
	return &Health{cfg: cfg, names: names, backends: make([]backendHealth, len(names))}
}

// OnChange installs the transition listener (call before serving).
func (h *Health) OnChange(fn func(backend int, from, to HealthState, reason string)) {
	h.onChange = fn
}

// now reads the clock, clamped monotonic under h.mu.
func (h *Health) now() int64 {
	var n int64
	if h.cfg.Clock != nil {
		n = h.cfg.Clock()
	} else {
		n = time.Now().UnixNano()
	}
	if n < h.lastNow {
		n = h.lastNow
	}
	h.lastNow = n
	return n
}

// transition moves backend b to state, firing the listener.
func (h *Health) transition(b int, to HealthState, reason string) {
	bh := &h.backends[b]
	from := bh.state
	if from == to {
		return
	}
	bh.state = to
	bh.reason = reason
	switch to {
	case HealthDemoted:
		bh.demotions++
	case HealthProbation:
		bh.readmissions++
	case HealthUp:
		bh.holdOffStep = 0
	}
	if h.onChange != nil {
		h.onChange(b, from, to, reason)
	}
}

// demote moves backend b to Demoted with the next exponential hold-off.
func (h *Health) demote(b int, now int64, reason string) {
	bh := &h.backends[b]
	bh.holdOffStep++
	bh.demotedUntil = now + policy.HoldOff(h.cfg.HoldOff, h.cfg.HoldOffMax, bh.holdOffStep)
	bh.consecFails = 0
	bh.consecOKs = 0
	h.transition(b, HealthDemoted, reason)
}

// Admitted reports whether backend b may serve traffic right now. An
// expired hold-off is ticked here — the probation readmit happens on the
// first routing decision after the hold-off, exactly as policy.Engine
// readmits on the first Admit after a cool-down.
func (h *Health) Admitted(b int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	bh := &h.backends[b]
	if bh.state != HealthDemoted {
		return true
	}
	now := h.now()
	if now >= bh.demotedUntil {
		bh.consecOKs = 0
		h.transition(b, HealthProbation, "hold-off expired")
		return true
	}
	return false
}

// State returns backend b's current state without ticking readmission.
func (h *Health) State(b int) HealthState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.backends[b].state
}

// ReportOK records a successful exchange with backend b; enough
// successes promote a probationary backend to Up.
func (h *Health) ReportOK(b int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	bh := &h.backends[b]
	bh.consecFails = 0
	if bh.state == HealthProbation {
		bh.consecOKs++
		if bh.consecOKs >= h.cfg.ProbationOKs {
			h.transition(b, HealthUp, "probation served")
		}
	}
}

// ReportFailure records a failed exchange (dial error, torn reply,
// timeout). While Up, FailThreshold consecutive failures demote; on
// probation a single strike re-demotes with a doubled hold-off.
func (h *Health) ReportFailure(b int, cause string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.now()
	bh := &h.backends[b]
	switch bh.state {
	case HealthProbation:
		h.demote(b, now, "probation strike: "+cause)
	case HealthUp:
		bh.consecFails++
		if bh.consecFails >= h.cfg.FailThreshold {
			h.demote(b, now, cause)
		}
	}
}

// BackendTelemetry is the slice of a backend's /metrics.json snapshot
// the router acts on.
type BackendTelemetry struct {
	// Rewinds is the cumulative rewind count (sum over detection
	// oracles of sdrad_rewinds_total).
	Rewinds float64
	// WorstPolicyState is the highest internal/policy ladder state over
	// the backend's UDIs (0 healthy .. 3 shedding), from
	// sdrad_policy_state; -1 when the backend exports no policy metrics.
	WorstPolicyState int
}

// ParseMetricsJSON extracts BackendTelemetry from a /metrics.json body
// (the telemetry registry's SnapshotJSON format: plain metrics as
// numbers, labeled families as {label: value} objects).
func ParseMetricsJSON(body []byte) (BackendTelemetry, error) {
	var snap map[string]json.RawMessage
	if err := json.Unmarshal(body, &snap); err != nil {
		return BackendTelemetry{}, fmt.Errorf("cluster: metrics snapshot: %w", err)
	}
	bt := BackendTelemetry{WorstPolicyState: -1}
	if raw, ok := snap["sdrad_rewinds_total"]; ok {
		var byCode map[string]float64
		if err := json.Unmarshal(raw, &byCode); err == nil {
			for _, v := range byCode {
				bt.Rewinds += v
			}
		} else {
			var n float64
			if json.Unmarshal(raw, &n) == nil {
				bt.Rewinds = n
			}
		}
	}
	if raw, ok := snap["sdrad_policy_state"]; ok {
		var byUDI map[string]float64
		if err := json.Unmarshal(raw, &byUDI); err == nil {
			for _, v := range byUDI {
				if int(v) > bt.WorstPolicyState {
					bt.WorstPolicyState = int(v)
				}
			}
		}
	}
	return bt, nil
}

// FetchMetrics is the default telemetry fetch: HTTP GET with a short
// timeout. The router tests swap in a stub so polls are deterministic.
func FetchMetrics(url string) ([]byte, error) {
	client := &http.Client{Timeout: 2 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: metrics fetch: %s", resp.Status)
	}
	return io.ReadAll(io.LimitReader(resp.Body, 4<<20))
}

// ObserveTelemetry feeds one backend's polled telemetry into the ladder:
// a policy state at Backoff or worse demotes immediately (the backend
// itself has declared its event domain suspect — the router should not
// wait for its own failure counters to notice), and a rewind rate above
// HealthConfig.RewindRate demotes even while the backend still answers.
// Recovery is NOT decided here: a demoted backend waits out its hold-off
// and earns Up through probation traffic, so one optimistic poll cannot
// flap a struggling backend straight back in.
func (h *Health) ObserveTelemetry(b int, bt BackendTelemetry) {
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.now()
	bh := &h.backends[b]
	var rate float64
	if bh.pollsSeen > 0 && now > bh.lastPollNs {
		rate = (bt.Rewinds - bh.lastRewinds) / (float64(now-bh.lastPollNs) / 1e9)
	}
	bh.lastRewinds = bt.Rewinds
	bh.lastPollNs = now
	bh.pollsSeen++
	if bh.state == HealthDemoted {
		return
	}
	switch {
	case bt.WorstPolicyState >= 1: // policy.StateBackoff or worse
		h.demote(b, now, fmt.Sprintf("policy state %d", bt.WorstPolicyState))
	case h.cfg.RewindRate > 0 && rate > h.cfg.RewindRate:
		h.demote(b, now, fmt.Sprintf("rewind rate %.0f/s", rate))
	}
}

// HealthSnapshot is one backend's ladder state for dumps and test
// assertions.
type HealthSnapshot struct {
	Backend      string `json:"backend"`
	State        string `json:"state"`
	Reason       string `json:"reason,omitempty"`
	HoldOffStep  int    `json:"hold_off_step,omitempty"`
	DeniedForNs  int64  `json:"denied_for_ns,omitempty"`
	Demotions    int64  `json:"demotions"`
	Readmissions int64  `json:"readmissions"`
}

// Snapshot returns every backend's state in backend order.
func (h *Health) Snapshot() []HealthSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.now()
	out := make([]HealthSnapshot, len(h.backends))
	for i := range h.backends {
		bh := &h.backends[i]
		out[i] = HealthSnapshot{
			Backend:      h.names[i],
			State:        bh.state.String(),
			Reason:       bh.reason,
			HoldOffStep:  bh.holdOffStep,
			Demotions:    bh.demotions,
			Readmissions: bh.readmissions,
		}
		if bh.state == HealthDemoted {
			if d := bh.demotedUntil - now; d > 0 {
				out[i].DeniedForNs = d
			}
		}
	}
	return out
}
