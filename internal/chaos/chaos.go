// Package chaos sweeps the fault points of the SDRaD servers. Each of the
// two sweeps (sweep.go) faults every in-domain access and domain
// allocation of a fixed request mix on a hardened server and judges each
// point against the vanilla build's replies. After every rewind the
// monitor absorbs, the sweep audits the invariants the monitor relies on
// (core.Library.Audit plus the sweep's own checks: mapped-bytes
// stability, rewind accounting, fault-log correlation). The core library
// itself is held to a reference model instead (internal/core,
// model_test.go; GUARANTEES.md), and the router's fleet ladder to its own
// tests (internal/cluster).
//
// "Unlimited Lives" (Gülmez et al.) motivates the design: rewind-based
// recovery fails subtly, by leaving state inconsistent after a rollback,
// not loudly. A sweep therefore treats "the process survived" as the
// weakest of its checks and re-derives the monitor's bookkeeping after
// every absorbed fault.
//
// A sweep draws nothing at random: its schedule — one line per fault
// point, naming the point, its outcome and how many requests it discarded
// — hashes to the same value on every run, and a moved hash means a
// request gained or lost a fault point or a point changed its outcome.
package chaos

import "fmt"

// Report is the outcome of one sweep.
type Report struct {
	// Injected counts the faults the sweep provoked or injected that the
	// monitor had to absorb; Absorbed counts the rewinds observed. The
	// two must match (each absorbed exactly once).
	Injected int
	Absorbed int
	// Audits counts invariant audits run; every one must pass.
	Audits int
	// Points counts the fault points the sweep judged.
	Points int
	// Schedule is the ordered record of points and outcomes; its hash
	// is the reproducibility witness.
	Schedule []string
	// Failures lists violated expectations; empty means the sweep
	// passed.
	Failures []string
}

// event appends a schedule line. Lines must be deterministic: they feed
// ScheduleHash.
func (r *Report) event(format string, args ...any) {
	r.Schedule = append(r.Schedule, fmt.Sprintf(format, args...))
}

// failf records a violated expectation.
func (r *Report) failf(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// ScheduleHash is the FNV-1a hash of the schedule, the value every run of
// a sweep must agree on.
func (r *Report) ScheduleHash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, line := range r.Schedule {
		for i := 0; i < len(line); i++ {
			h ^= uint64(line[i])
			h *= prime64
		}
		h ^= '\n'
		h *= prime64
	}
	return h
}
