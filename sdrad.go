// Package sdrad is the public API of SDRaD-Go, a reproduction of
// "Rewind & Discard: Improving Software Resilience using Isolated Domains"
// (Gülmez, Nyman, Baumann, Mühlberg — DSN 2023).
//
// SDRaD improves the resilience of software under run-time attack: instead
// of terminating a victim application when a memory-safety defense fires,
// it compartmentalizes the application into hardware-isolated domains,
// confines the attack's effects to the failing domain's memory, discards
// that memory, and rewinds the thread to a recovery point established
// before the domain began executing — so the application keeps serving its
// other clients.
//
// Because the original system is built on Intel Memory Protection Keys,
// per-thread PKRU state, setjmp/longjmp, and POSIX signals — none of which
// coexist with the Go runtime — this reproduction runs applications on a
// simulated substrate: a software MMU with full PKU semantics
// (sdrad/internal/mem), simulated signals, per-domain TLSF subheaps, and
// per-domain stacks with stack-protector canaries. Every byte of
// application state lives in the simulated address space, so the same bug
// classes fault the same way and the same recovery machinery repairs them.
//
// # Quick start
//
//	p := sdrad.NewProcess("myapp")
//	lib, err := sdrad.Setup(p)
//	...
//	err = p.Attach("main", func(t *sdrad.Thread) error {
//		const udiF = sdrad.UDI(1)
//		err := lib.Guard(t, udiF, func() error {
//			arg, _ := lib.Malloc(t, udiF, uint64(len(input)))
//			lib.WriteBytes(t, arg, input)    // copy argument in
//			if err := lib.Enter(t, udiF); err != nil {
//				return err
//			}
//			runRiskyParser(t, arg)           // isolated execution
//			return lib.Exit(t)
//		}, sdrad.Accessible())
//		var abn *sdrad.AbnormalExit
//		if errors.As(err, &abn) {
//			// The parser was attacked; its memory is already discarded.
//			// Close the offending connection and keep serving.
//		}
//		return nil
//	})
//
// See examples/ for complete programs and DESIGN.md for the architecture.
package sdrad

import (
	"sdrad/internal/core"
	"sdrad/internal/mem"
	"sdrad/internal/proc"
	"sdrad/internal/sig"
)

// Re-exported core types. Aliases keep errors.Is/errors.As working across
// the package boundary.
type (
	// Library is the SDRaD reference monitor for one process.
	Library = core.Library
	// UDI is a user domain index (Table I of the paper).
	UDI = core.UDI
	// AbnormalExit reports a recovered attack: the failing domain index
	// and the detection oracle. Returned by Guard; match with errors.As.
	AbnormalExit = core.AbnormalExit
	// Kind distinguishes execution and data domains.
	Kind = core.Kind
	// InitOption configures domain initialization.
	InitOption = core.InitOption
	// SetupOption configures Setup.
	SetupOption = core.SetupOption
	// DestroyOption selects heap disposal on Destroy.
	DestroyOption = core.DestroyOption
	// Stats holds the monitor's activity counters.
	Stats = core.Stats

	// Process is a simulated OS process hosting the application.
	Process = proc.Process
	// Thread is a simulated thread; all SDRaD calls take the calling
	// thread explicitly (the substitute for thread-local state).
	Thread = proc.Thread
	// Addr is a virtual address in the simulated address space.
	Addr = mem.Addr
	// Prot is a page/domain protection bit set for DProtect.
	Prot = mem.Prot
	// Signal identifies the detection oracle in an AbnormalExit.
	Signal = sig.Signal
)

// RootUDI is the index of the root domain.
const RootUDI = core.RootUDI

// Domain kinds.
const (
	ExecDomain = core.ExecDomain
	DataDomain = core.DataDomain
)

// Destroy options.
const (
	NoHeapMerge = core.NoHeapMerge
	HeapMerge   = core.HeapMerge
)

// Protection bits for DProtect.
const (
	ProtNone  = mem.ProtNone
	ProtRead  = mem.ProtRead
	ProtWrite = mem.ProtWrite
	ProtRW    = mem.ProtRW
)

// Re-exported errors; see the core package for semantics.
var (
	ErrAlreadyInit       = core.ErrAlreadyInit
	ErrUnknownDomain     = core.ErrUnknownDomain
	ErrBadDomainKind     = core.ErrBadDomainKind
	ErrNotChild          = core.ErrNotChild
	ErrNoContext         = core.ErrNoContext
	ErrRootOperation     = core.ErrRootOperation
	ErrDomainBusy        = core.ErrDomainBusy
	ErrNotEntered        = core.ErrNotEntered
	ErrNoGrandparent     = core.ErrNoGrandparent
	ErrUDIInUse          = core.ErrUDIInUse
	ErrHeapExhausted     = core.ErrHeapExhausted
	ErrTooManyDomains    = core.ErrTooManyDomains
	ErrDomainQuarantined = core.ErrDomainQuarantined
	ErrSharedTopology    = core.ErrSharedTopology
)

// NewProcess creates a simulated process to host an SDRaD application.
func NewProcess(name string, opts ...proc.Option) *Process {
	return proc.NewProcess(name, opts...)
}

// WithSeed fixes the process random seed (canaries).
func WithSeed(seed int64) proc.Option { return proc.WithSeed(seed) }

// WithWRPKRUCost enables the WRPKRU cost model on the process address
// space: every PKRU write burns the given number of busy iterations,
// modeling the pipeline flush of the real instruction (used by the
// domain-switch profiling experiments).
func WithWRPKRUCost(iterations int) proc.Option {
	return proc.WithMemOptions(mem.WithWRPKRUCost(iterations))
}

// Setup links SDRaD into the process: it allocates protection keys, maps
// the monitor data domain, installs the fault handler, and arranges for
// every thread to start in the root domain.
func Setup(p *Process, opts ...SetupOption) (*Library, error) {
	return core.Setup(p, opts...)
}

// Setup options.
var (
	// WithDefaultStackSize sets the default nested-domain stack size.
	WithDefaultStackSize = core.WithDefaultStackSize
	// WithDefaultHeapSize sets the default nested-domain heap size.
	WithDefaultHeapSize = core.WithDefaultHeapSize
	// WithRootHeapSize sets the root-domain heap size.
	WithRootHeapSize = core.WithRootHeapSize
	// WithScrubOnDiscard zeroes discarded domain memory.
	WithScrubOnDiscard = core.WithScrubOnDiscard
	// WithStackReuse toggles the stack-reuse optimization (§IV-C).
	WithStackReuse = core.WithStackReuse
)

// Init options.
var (
	// Accessible makes the domain's memory accessible to its parent.
	Accessible = core.Accessible
	// AsData creates a data domain (shareable pages, no execution).
	AsData = core.AsData
	// HandlerAtGrandparent routes abnormal exits to the parent's
	// recovery point (Figure 2 of the paper).
	HandlerAtGrandparent = core.HandlerAtGrandparent
	// StackSize overrides the domain stack size.
	StackSize = core.StackSize
	// HeapSize overrides the domain heap size.
	HeapSize = core.HeapSize
)

// RewindEvent describes one absorbed attack, delivered to the observer
// registered with WithRewindObserver (incident reporting, paper §VI).
type RewindEvent = core.RewindEvent

// Observability and policy options (paper §VI).
var (
	// WithRewindObserver registers an incident callback per rewind.
	WithRewindObserver = core.WithRewindObserver
	// WithRewindLimit terminates the process after N absorbed rewinds,
	// forcing a restart that re-randomizes probabilistic defenses.
	WithRewindLimit = core.WithRewindLimit
)
