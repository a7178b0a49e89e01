// Package core implements SDRaD — Secure Domain Rewind and Discard — the
// primary contribution of the reproduced paper, over the simulated PKU
// substrate of internal/mem.
//
// The library compartmentalizes a simulated process into isolated domains:
// a root domain holding all initial memory and nested execution/data
// domains, each tagged with its own protection key. A reference monitor
// mediates domain life-cycle operations (Table I of the paper: init,
// malloc, free, dprotect, enter, exit, destroy, deinit) and performs
// secure rewinding: when a run-time defense detects an attack inside a
// nested domain — a protection-key violation, a plain segfault, or a
// smashed stack canary — the monitor discards the domain's memory and
// unwinds the victim thread to the recovery point established when the
// domain was initialized, so the application can keep serving.
//
// # Go adaptation of the setjmp/longjmp recovery point
//
// C SDRaD's sdrad_init() saves an execution context and "returns twice":
// normally at initialization, and again after an abnormal domain exit. Go
// cannot re-enter an unwound stack frame, so the recovery point is scoped
// instead: Guard(t, udi, opts, body) initializes the domain, runs body
// (which enters the domain, calls the isolated function, and exits), and
// — when an abnormal exit targets this domain's recovery point — recovers
// the unwinding panic and returns an *AbnormalExit carrying the failed
// domain index, exactly the information the C API encodes in the second
// return of sdrad_init. Rewinds that target an outer recovery point
// (handler-at-grandparent configurations, Figure 2 of the paper) pass
// through inner Guards untouched apart from bookkeeping.
package core

import (
	"errors"
	"fmt"

	"sdrad/internal/policy"
	"sdrad/internal/sig"
)

// Errors returned by the SDRaD API.
var (
	// ErrAlreadyInit: the domain index is already initialized with a
	// valid recovery context on this thread (paper: "A domain can only be
	// initialized once per thread").
	ErrAlreadyInit = errors.New("sdrad: domain already initialized")
	// ErrUnknownDomain: no such domain index.
	ErrUnknownDomain = errors.New("sdrad: unknown domain")
	// ErrBadDomainKind: operation not applicable to this domain kind
	// (e.g. entering a data domain).
	ErrBadDomainKind = errors.New("sdrad: operation not valid for this domain kind")
	// ErrNotChild: the operation requires an accessible child of the
	// current domain.
	ErrNotChild = errors.New("sdrad: domain is not an accessible child of the current domain")
	// ErrNoContext: the domain has no valid recovery context (it must be
	// (re-)initialized inside a Guard before entering).
	ErrNoContext = errors.New("sdrad: domain has no valid recovery context")
	// ErrRootOperation: the operation cannot target the root domain.
	ErrRootOperation = errors.New("sdrad: operation not permitted on the root domain")
	// ErrDomainBusy: the domain is currently entered.
	ErrDomainBusy = errors.New("sdrad: domain is currently executing")
	// ErrNotEntered: Exit called with no entered nested domain.
	ErrNotEntered = errors.New("sdrad: no nested domain to exit")
	// ErrNoGrandparent: handler-at-grandparent requested but the parent
	// is the root domain, which has no recovery point.
	ErrNoGrandparent = errors.New("sdrad: handler-at-grandparent requires a non-root parent")
	// ErrUDIInUse: the index is taken by a global data domain.
	ErrUDIInUse = errors.New("sdrad: domain index in use")
	// ErrHeapExhausted wraps allocator out-of-memory conditions.
	ErrHeapExhausted = errors.New("sdrad: domain heap exhausted")
	// ErrTooManyDomains: no protection keys left for a new domain.
	ErrTooManyDomains = errors.New("sdrad: protection keys exhausted")
	// ErrDomainQuarantined: the resilience-policy engine refused a guard
	// scope or a (re-)initialization of the domain (backoff hold-off,
	// quarantine cool-down, or load shedding). Match with errors.Is;
	// retrieve the hold-off with errors.As on *QuarantineError.
	ErrDomainQuarantined = errors.New("sdrad: domain re-initialization denied by resilience policy")
	// ErrSharedTopology: the call would change what every thread's
	// policy derives from — create or destroy a data domain, or change
	// the root domain's grants — while another thread of the library is
	// live. WRPKRU changes only the calling thread's register, so such a
	// change is made on a lone thread: a server provisions its data
	// domains before it spawns workers.
	ErrSharedTopology = errors.New("sdrad: shared domain topology changes only on a lone thread")
)

// QuarantineError carries the policy decision behind a denied guard scope
// or domain (re-)initialization. It unwraps to ErrDomainQuarantined.
type QuarantineError struct {
	// UDI is the denied domain.
	UDI UDI
	// State is the ladder state that denied it (backoff, quarantined or
	// shedding).
	State policy.State
	// RetryAfterNs is how long admission stays denied; 0 means the
	// denial is permanent (shedding).
	RetryAfterNs int64
}

// Error implements error.
func (e *QuarantineError) Error() string {
	if e.RetryAfterNs > 0 {
		return fmt.Sprintf("sdrad: domain %d re-initialization denied (%s, retry after %dns)",
			e.UDI, e.State, e.RetryAfterNs)
	}
	return fmt.Sprintf("sdrad: domain %d re-initialization denied (%s)", e.UDI, e.State)
}

// Unwrap makes errors.Is(err, ErrDomainQuarantined) match.
func (e *QuarantineError) Unwrap() error { return ErrDomainQuarantined }

// AbnormalExit reports that a guarded domain suffered an abnormal domain
// exit: a run-time defense detected an attack, the domain's memory was
// discarded, and execution was rewound to the recovery point that caught
// this value. It implements error; retrieve it with errors.As.
type AbnormalExit struct {
	// FailedUDI is the domain that was executing when the attack was
	// detected (the C API's second sdrad_init return value).
	FailedUDI UDI
	// Signal and Code describe the detection oracle: SIGSEGV with
	// SEGV_PKUERR/SEGV_MAPERR/SEGV_ACCERR for memory faults, SIGABRT for
	// stack-canary violations.
	Signal sig.Signal
	Code   int
	// Addr is the faulting address, when applicable.
	Addr uint64
	// PKey is the protection key involved in a SEGV_PKUERR.
	PKey int
	// Cause carries the underlying trap value.
	Cause error
}

// Error implements error.
func (e *AbnormalExit) Error() string {
	return fmt.Sprintf("sdrad: abnormal exit of domain %d (%v code=%d addr=0x%x)",
		e.FailedUDI, e.Signal, e.Code, e.Addr)
}

// Unwrap exposes the underlying trap for errors.Is/As chains.
func (e *AbnormalExit) Unwrap() error { return e.Cause }
