// Package policy implements the "Unlimited Lives" resilience-policy
// layer for the SDRaD reference monitor: the component that *decides*
// what a rewind means. The monitor's mechanism — discard the domain,
// unwind to the recovery point — treats every rewind identically and at
// full cost; Gülmez et al.'s follow-up argues that secure in-process
// rollback only becomes a resilience story once a policy rate-limits
// repeated rewinds and escalates persistent offenders.
//
// The engine tracks per-UDI rewind rates over a sliding window and walks
// each domain up an escalation ladder:
//
//	Healthy ──rewind burst──▶ Backoff ──keeps faulting──▶ Quarantined
//	   ▲                        │  (re-init delayed,          │
//	   │   window drains        │   exponential)              │ cool-down;
//	   └────────────────────────┘                             │ re-init refused,
//	                 probation readmit ◀──────────────────────┘ degraded path
//	                                          │
//	                         still faulting   ▼
//	                                       Shedding (re-init refused for good)
//
// The monitor consults OnRewind after every absorbed rewind (the
// decision is recorded in the rewind's forensics report) and Admit
// before re-initializing a domain; a denied Admit surfaces to the
// application as core.ErrDomainQuarantined, and each server chooses its
// degraded response — memcached serves misses, httpd answers 503 with
// Retry-After, the crypto wrapper fails closed.
//
// The package imports only the standard library and internal/telemetry,
// mirroring the dependency discipline of the telemetry subsystem, so
// every layer (and the chaos engine) can hold an engine.
package policy

import (
	"sort"
	"strconv"
	"sync"
	"time"

	"sdrad/internal/telemetry"
)

// State is a domain's position on the escalation ladder.
type State int

// Ladder states.
const (
	// StateHealthy: rewinds are rare; re-init is immediate.
	StateHealthy State = iota
	// StateBackoff: the rewind rate crossed BackoffThreshold; re-init is
	// delayed by an exponentially growing hold-off.
	StateBackoff
	// StateQuarantined: the rate crossed QuarantineThreshold; re-init is
	// refused for a cool-down period and the application should route
	// requests to its degraded path.
	StateQuarantined
	// StateShedding: the rate crossed ShedThreshold; re-init is refused
	// permanently and the application should shed the domain's load.
	StateShedding
)

func (s State) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateBackoff:
		return "backoff"
	case StateQuarantined:
		return "quarantined"
	case StateShedding:
		return "shedding"
	default:
		return "unknown"
	}
}

// Action is the policy's verdict for one consultation.
type Action int

// Decision actions.
const (
	// ActionNone: admission granted with no state change.
	ActionNone Action = iota
	// ActionRewind: the rewind is within budget; recover normally.
	ActionRewind
	// ActionBackoff: the rewind tripped (or extended) the backoff
	// hold-off; re-init is delayed.
	ActionBackoff
	// ActionQuarantine: the rewind pushed the domain into quarantine.
	ActionQuarantine
	// ActionShed: the domain is shedding load; re-init refused for good.
	ActionShed
	// ActionDeny: admission refused (backoff hold-off or quarantine
	// cool-down still running); RetryAfterNs says when to retry.
	ActionDeny
	// ActionReadmit: a quarantine cool-down or backoff hold-off expired
	// and the domain is readmitted (on probation after quarantine).
	ActionReadmit
)

func (a Action) String() string {
	switch a {
	case ActionNone:
		return "none"
	case ActionRewind:
		return "rewind"
	case ActionBackoff:
		return "backoff"
	case ActionQuarantine:
		return "quarantine"
	case ActionShed:
		return "shed"
	case ActionDeny:
		return "deny"
	case ActionReadmit:
		return "readmit"
	default:
		return "unknown"
	}
}

// Decision is the outcome of one policy consultation.
type Decision struct {
	UDI    int
	State  State
	Action Action
	// WindowCount is the number of rewinds inside the sliding window at
	// decision time (including the one being decided, for OnRewind).
	WindowCount int
	// RetryAfterNs is how long admission stays denied (Deny decisions;
	// 0 for permanent shedding).
	RetryAfterNs int64
	// TimeNs is the engine-clock timestamp of the decision.
	TimeNs int64
}

// Allowed reports whether the consulted operation may proceed.
func (d Decision) Allowed() bool {
	return d.Action != ActionDeny && d.Action != ActionShed
}

// Config parameterizes the engine. The zero value gets defaults suited
// to the simulated servers.
type Config struct {
	// Window is the sliding-window width for rewind-rate tracking
	// (default 1s).
	Window time.Duration
	// BackoffThreshold is the windowed rewind count that moves a domain
	// to Backoff (default 3).
	BackoffThreshold int
	// QuarantineThreshold moves it to Quarantined (default 6).
	QuarantineThreshold int
	// ShedThreshold moves it to Shedding (default 12; set negative to
	// disable shedding entirely).
	ShedThreshold int
	// BackoffBase is the first re-init hold-off; each further backoff
	// escalation doubles it up to BackoffMax (defaults 1ms / 100ms).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Cooldown is the quarantine duration (default 1s).
	Cooldown time.Duration
	// Clock supplies monotonic nanoseconds. Nil uses the wall clock;
	// chaos campaigns install a ManualClock so the ladder walk is a
	// deterministic function of the schedule.
	Clock func() int64
}

func (c *Config) setDefaults() {
	if c.Window <= 0 {
		c.Window = time.Second
	}
	if c.BackoffThreshold <= 0 {
		c.BackoffThreshold = 3
	}
	if c.QuarantineThreshold <= 0 {
		c.QuarantineThreshold = 6
	}
	if c.ShedThreshold == 0 {
		c.ShedThreshold = 12
	}
	if c.ShedThreshold < 0 {
		c.ShedThreshold = 0 // disabled
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 100 * time.Millisecond
	}
	if c.Cooldown <= 0 {
		c.Cooldown = time.Second
	}
}

// domainState is one UDI's ladder position and rate-tracking window.
type domainState struct {
	state State
	// window holds engine-clock timestamps of rewinds not older than
	// Config.Window, oldest first.
	window []int64
	// backoffStep counts backoff escalations since the last return to
	// Healthy; the hold-off is BackoffBase<<(step-1) capped at
	// BackoffMax.
	backoffStep int
	// deniedUntil is the engine-clock time admission reopens (Backoff
	// and Quarantined states).
	deniedUntil  int64
	totalRewinds int64
	escalations  int64
}

// Engine is the resilience-policy engine the reference monitor
// consults: OnRewind after every absorbed rewind, Admit before every
// domain (re-)initialization, Snapshot for dumps and campaign
// assertions. One engine typically serves one library (process); keying
// by UDI quarantines the vulnerable component — every thread's instance
// of it — which matches the paper's framing of a UDI as one isolated
// software component. A nil *Engine is a valid no-op: every consultation
// allows and reports Healthy.
type Engine struct {
	cfg Config

	mu      sync.Mutex
	domains map[int]*domainState
	// lastNow clamps the clock monotonically: a skewed or rewound clock
	// source can delay ladder transitions but never un-order decisions.
	lastNow int64

	// Telemetry (nil without AttachTelemetry).
	rec          *telemetry.Recorder
	mState       *telemetry.GaugeVec   // by udi
	mEscalations *telemetry.CounterVec // by action
	mDenials     *telemetry.Counter
	mReadmits    *telemetry.Counter
}

// New builds an engine.
func New(cfg Config) *Engine {
	cfg.setDefaults()
	return &Engine{cfg: cfg, domains: make(map[int]*domainState)}
}

// Config returns the engine's effective (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// AttachTelemetry registers the policy metric families and emits a
// flight-recorder event per escalation. Safe to share one recorder
// across engines: families dedup by name in the registry.
func (e *Engine) AttachTelemetry(rec *telemetry.Recorder) {
	if e == nil || rec == nil {
		return
	}
	reg := rec.Registry()
	e.mu.Lock()
	e.rec = rec
	e.mState = reg.GaugeVec("sdrad_policy_state",
		"Resilience-policy ladder state per UDI (0 healthy, 1 backoff, 2 quarantined, 3 shedding).", "udi")
	e.mEscalations = reg.CounterVec("sdrad_policy_escalations_total",
		"Resilience-policy ladder escalations, by action taken.", "action")
	e.mDenials = reg.Counter("sdrad_policy_denials_total",
		"Domain re-initializations refused by the resilience policy.")
	e.mReadmits = reg.Counter("sdrad_policy_readmissions_total",
		"Domains readmitted after a backoff hold-off or quarantine cool-down expired.")
	e.mu.Unlock()
}

// now reads the engine clock, clamped monotonic under e.mu.
func (e *Engine) now() int64 {
	var n int64
	if e.cfg.Clock != nil {
		n = e.cfg.Clock()
	} else {
		n = time.Now().UnixNano()
	}
	if n < e.lastNow {
		n = e.lastNow
	}
	e.lastNow = n
	return n
}

// pruneWindow drops window entries older than Config.Window.
func (e *Engine) pruneWindow(ds *domainState, now int64) {
	cut := now - int64(e.cfg.Window)
	i := 0
	for i < len(ds.window) && ds.window[i] <= cut {
		i++
	}
	if i > 0 {
		ds.window = append(ds.window[:0], ds.window[i:]...)
	}
}

// state returns (creating if needed) the ladder state for udi.
func (e *Engine) state(udi int) *domainState {
	ds := e.domains[udi]
	if ds == nil {
		ds = &domainState{}
		e.domains[udi] = ds
	}
	return ds
}

// OnRewind is the monitor's post-rewind consultation: it records the
// rewind in udi's sliding window and escalates the ladder when a
// threshold is crossed. Nil-engine safe (no policy configured).
func (e *Engine) OnRewind(udi int) Decision {
	if e == nil {
		return Decision{UDI: udi, Action: ActionRewind}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.now()
	ds := e.state(udi)
	e.pruneWindow(ds, now)
	ds.window = append(ds.window, now)
	ds.totalRewinds++
	n := len(ds.window)

	dec := Decision{UDI: udi, WindowCount: n, TimeNs: now}
	switch {
	case ds.state == StateShedding:
		dec.Action = ActionShed
	case e.cfg.ShedThreshold > 0 && n >= e.cfg.ShedThreshold:
		ds.state = StateShedding
		ds.deniedUntil = 0
		ds.escalations++
		dec.Action = ActionShed
	case ds.state == StateQuarantined, n >= e.cfg.QuarantineThreshold:
		// A rewind during quarantine (degraded paths may still guard
		// other work) restarts the cool-down.
		if ds.state != StateQuarantined {
			ds.escalations++
		}
		ds.state = StateQuarantined
		ds.deniedUntil = now + int64(e.cfg.Cooldown)
		dec.Action = ActionQuarantine
		dec.RetryAfterNs = int64(e.cfg.Cooldown)
	case n >= e.cfg.BackoffThreshold:
		if ds.state != StateBackoff {
			ds.escalations++
		}
		ds.state = StateBackoff
		ds.backoffStep++
		hold := e.backoffHold(ds.backoffStep)
		ds.deniedUntil = now + hold
		dec.Action = ActionBackoff
		dec.RetryAfterNs = hold
	default:
		dec.Action = ActionRewind
	}
	dec.State = ds.state
	// Metrics only: the monitor emits the flight-recorder event for
	// rewind-side decisions with the victim thread attached.
	e.recordLocked(dec, false)
	return dec
}

// OnPressure is the load-pressure side channel: the scheduler calls it
// when a worker's batch controller has been pinned at the AIMD floor by
// a hot rewind window for a full window — batching has already shrunk
// the blast radius to single requests and the domain is STILL rewinding,
// so admission should start backing off before the raw rewind count
// crosses BackoffThreshold on its own. A Healthy or Backoff domain
// (re-)enters Backoff with the next exponential hold-off; Quarantined
// and Shedding domains already dominate the signal and are left
// untouched. Nil-engine safe.
func (e *Engine) OnPressure(udi int) Decision {
	if e == nil {
		return Decision{UDI: udi, Action: ActionNone}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.now()
	ds := e.state(udi)
	e.pruneWindow(ds, now)
	dec := Decision{UDI: udi, WindowCount: len(ds.window), TimeNs: now}
	switch ds.state {
	case StateQuarantined, StateShedding:
		dec.Action = ActionNone
	default:
		if ds.state != StateBackoff {
			ds.escalations++
		}
		ds.state = StateBackoff
		ds.backoffStep++
		hold := e.backoffHold(ds.backoffStep)
		ds.deniedUntil = now + hold
		dec.Action = ActionBackoff
		dec.RetryAfterNs = hold
	}
	dec.State = ds.state
	e.recordLocked(dec, false)
	return dec
}

// backoffHold computes the exponential hold-off for escalation step.
func (e *Engine) backoffHold(step int) int64 {
	hold := int64(e.cfg.BackoffBase)
	max := int64(e.cfg.BackoffMax)
	for i := 1; i < step; i++ {
		hold <<= 1
		if hold >= max || hold <= 0 {
			return max
		}
	}
	if hold > max {
		return max
	}
	return hold
}

// Admit is the pre-(re)initialization consultation: the monitor calls it
// before re-creating a domain, and degraded paths call it to learn the
// current verdict. Expired hold-offs are ticked here — a quarantined
// domain whose cool-down has run out is readmitted on probation (it
// re-enters Backoff, keeping its window, rather than jumping straight to
// Healthy). Nil-engine safe.
func (e *Engine) Admit(udi int) Decision {
	if e == nil {
		return Decision{UDI: udi, Action: ActionNone}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.now()
	ds := e.domains[udi]
	if ds == nil {
		return Decision{UDI: udi, Action: ActionNone, TimeNs: now}
	}
	e.pruneWindow(ds, now)
	dec := Decision{UDI: udi, WindowCount: len(ds.window), TimeNs: now}
	switch ds.state {
	case StateShedding:
		// Permanent denial: RetryAfterNs stays 0.
		dec.Action = ActionDeny
	case StateQuarantined:
		if now >= ds.deniedUntil {
			// Probation: back to Backoff with the hold-off already
			// served; the next rewind escalates from there.
			ds.state = StateBackoff
			ds.deniedUntil = now
			dec.Action = ActionReadmit
		} else {
			dec.Action = ActionDeny
			dec.RetryAfterNs = ds.deniedUntil - now
		}
	case StateBackoff:
		if now >= ds.deniedUntil {
			if len(ds.window) == 0 {
				// The window drained during the hold-off: fully healthy.
				ds.state = StateHealthy
				ds.backoffStep = 0
			}
			dec.Action = ActionReadmit
		} else {
			dec.Action = ActionDeny
			dec.RetryAfterNs = ds.deniedUntil - now
		}
	default:
		dec.Action = ActionNone
	}
	dec.State = ds.state
	e.recordLocked(dec, true)
	return dec
}

// recordLocked mirrors a decision into the attached telemetry (caller
// holds e.mu). flight additionally writes a flight-recorder event for
// state-changing decisions; rewind-side callers pass false because the
// monitor records the event itself, with the victim thread attached.
func (e *Engine) recordLocked(dec Decision, flight bool) {
	if e.rec == nil {
		return
	}
	e.mState.With(strconv.Itoa(dec.UDI)).Set(int64(dec.State))
	switch dec.Action {
	case ActionBackoff, ActionQuarantine, ActionShed:
		e.mEscalations.With(dec.Action.String()).Add(1)
	case ActionDeny:
		e.mDenials.Add(1)
	case ActionReadmit:
		e.mReadmits.Add(1)
	default:
		return
	}
	if flight && dec.Action == ActionReadmit {
		e.rec.RecordPolicy(0, dec.UDI, int(dec.State), int(dec.Action), uint64(dec.WindowCount))
	}
}

// DomainSnapshot is one UDI's policy state for dumps and assertions.
type DomainSnapshot struct {
	UDI          int    `json:"udi"`
	State        string `json:"state"`
	WindowCount  int    `json:"window_count"`
	BackoffStep  int    `json:"backoff_step"`
	DeniedForNs  int64  `json:"denied_for_ns"`
	TotalRewinds int64  `json:"total_rewinds"`
	Escalations  int64  `json:"escalations"`
}

// Snapshot returns the per-UDI policy state, sorted by UDI. Nil-engine
// safe (returns nil).
func (e *Engine) Snapshot() []DomainSnapshot {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.now()
	out := make([]DomainSnapshot, 0, len(e.domains))
	for udi, ds := range e.domains {
		e.pruneWindow(ds, now)
		snap := DomainSnapshot{
			UDI:          udi,
			State:        ds.state.String(),
			WindowCount:  len(ds.window),
			BackoffStep:  ds.backoffStep,
			TotalRewinds: ds.totalRewinds,
			Escalations:  ds.escalations,
		}
		if ds.state == StateBackoff || ds.state == StateQuarantined {
			if d := ds.deniedUntil - now; d > 0 {
				snap.DeniedForNs = d
			}
		}
		out = append(out, snap)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].UDI < out[j].UDI })
	return out
}

// ManualClock is a hand-advanced clock for deterministic campaigns and
// tests. The zero value starts at time 1 (0 is reserved so "unset"
// timestamps stay distinguishable).
type ManualClock struct {
	mu sync.Mutex
	ns int64
}

// Now returns the current manual time; pass (&mc).Now as Config.Clock.
func (m *ManualClock) Now() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ns == 0 {
		m.ns = 1
	}
	return m.ns
}

// Advance moves the clock forward by d.
func (m *ManualClock) Advance(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ns == 0 {
		m.ns = 1
	}
	m.ns += int64(d)
}

// Set jumps the clock to ns (backwards jumps are clamped by the engine).
func (m *ManualClock) Set(ns int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ns = ns
}
