// Package sig names the slice of POSIX signal semantics that SDRaD
// depends on: the signal numbers, the siginfo_t fields the SDRaD handler
// inspects (si_code discrimination for SIGSEGV, the faulting address and
// protection key), and the per-thread signal mask that is saved and
// restored as part of an execution context (setjmp/longjmp save the mask
// too).
//
// In the real system the kernel delivers SIGSEGV to the thread that
// faulted and the SDRaD signal handler decides between rewinding and
// letting the process die. In the simulation, memory faults surface as
// panics: proc.TrapToSignal turns one into an Info, core's Guard makes
// the handler's decision, and a trap no Guard recovers reaches the
// process supervisor, which terminates the process — a blocked SIGSEGV,
// an ignored one and a default disposition all end there.
package sig

import "fmt"

// Signal is a POSIX signal number.
type Signal int

// Signals used by the simulation. Values match Linux on x86-64.
const (
	SIGABRT Signal = 6
	SIGKILL Signal = 9
	SIGSEGV Signal = 11
	SIGTERM Signal = 15

	maxSignal = 64
)

func (s Signal) String() string {
	switch s {
	case SIGABRT:
		return "SIGABRT"
	case SIGKILL:
		return "SIGKILL"
	case SIGSEGV:
		return "SIGSEGV"
	case SIGTERM:
		return "SIGTERM"
	default:
		return fmt.Sprintf("signal(%d)", int(s))
	}
}

// Info mirrors the subset of siginfo_t the SDRaD handler inspects.
type Info struct {
	// Signal is the delivered signal.
	Signal Signal
	// Code is the si_code value; for SIGSEGV it discriminates
	// SEGV_MAPERR (1), SEGV_ACCERR (2), and SEGV_PKUERR (4).
	Code int
	// Addr is the faulting address (si_addr), if any.
	Addr uint64
	// PKey is the protection key involved in a SEGV_PKUERR (si_pkey).
	PKey int
	// Cause optionally carries the underlying simulated-trap value.
	Cause error
}

func (i *Info) String() string {
	return fmt.Sprintf("%v code=%d addr=0x%x pkey=%d", i.Signal, i.Code, i.Addr, i.PKey)
}

// Mask is a per-thread signal mask (sigprocmask state). The zero value
// blocks nothing. Masks are saved in execution contexts and restored on
// rewind, like sigsetjmp/siglongjmp with savesigs != 0.
type Mask uint64

// Block returns m with sig blocked.
func (m Mask) Block(sig Signal) Mask {
	if sig <= 0 || sig > maxSignal {
		return m
	}
	return m | 1<<(uint(sig)-1)
}

// Unblock returns m with sig unblocked.
func (m Mask) Unblock(sig Signal) Mask {
	if sig <= 0 || sig > maxSignal {
		return m
	}
	return m &^ (1 << (uint(sig) - 1))
}

// Has reports whether sig is blocked in m.
func (m Mask) Has(sig Signal) bool {
	if sig <= 0 || sig > maxSignal {
		return false
	}
	return m&(1<<(uint(sig)-1)) != 0
}
