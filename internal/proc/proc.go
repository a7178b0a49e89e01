// Package proc simulates the process and thread abstractions the SDRaD
// library lives in: a process owns one simulated address space and signal
// table; threads are goroutines that each carry a CPU context (with its
// own PKRU register), a signal mask, and a thread-local slot for the
// SDRaD per-thread control data.
//
// The package also implements the "kernel half" of fault handling: a
// thread body that panics with a simulated trap (*mem.Fault or
// *stack.SmashError) has the trap converted to a signal and delivered
// through the process signal table. If no handler recovers — e.g. the
// fault happened in the SDRaD root domain — the process terminates, which
// is precisely the baseline behaviour the paper improves upon.
package proc

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"sdrad/internal/mem"
	"sdrad/internal/sig"
	"sdrad/internal/stack"
)

// Errors reported by the process layer.
var (
	ErrTerminated = errors.New("proc: process terminated")
)

// CrashError records an unrecovered fault that terminated the process.
type CrashError struct {
	// Thread is the name of the faulting thread.
	Thread string
	// Info is the delivered signal information.
	Info sig.Info
}

// Error implements error.
func (e *CrashError) Error() string {
	return fmt.Sprintf("proc: thread %q killed by %s", e.Thread, e.Info.String())
}

// Process is a simulated OS process.
type Process struct {
	name string
	as   *mem.AddressSpace
	sigs *sig.Table

	mu           sync.Mutex
	rng          *rand.Rand
	nextTID      int
	constructors []func(*Thread) error
	destructors  []func(*Thread)

	killed   atomic.Bool
	exitOnce sync.Once
	exitErr  error
	done     chan struct{}
	wg       sync.WaitGroup
}

// Option configures a Process.
type Option func(*cfg)

type cfg struct {
	seed    int64
	memOpts []mem.Option
}

// WithSeed fixes the process random seed (canaries, ASLR analog).
func WithSeed(seed int64) Option { return func(c *cfg) { c.seed = seed } }

// WithMemOptions forwards options to the process address space.
func WithMemOptions(opts ...mem.Option) Option {
	return func(c *cfg) { c.memOpts = append(c.memOpts, opts...) }
}

// NewProcess creates a process with a fresh address space and default
// signal dispositions.
func NewProcess(name string, opts ...Option) *Process {
	c := cfg{seed: 1}
	for _, o := range opts {
		o(&c)
	}
	return &Process{
		name: name,
		as:   mem.NewAddressSpace(c.memOpts...),
		sigs: sig.NewTable(),
		rng:  rand.New(rand.NewSource(c.seed)),
		done: make(chan struct{}),
	}
}

// Name returns the process name.
func (p *Process) Name() string { return p.name }

// AddressSpace returns the process address space.
func (p *Process) AddressSpace() *mem.AddressSpace { return p.as }

// Signals returns the process signal table.
func (p *Process) Signals() *sig.Table { return p.sigs }

// Rand64 returns process-seeded randomness (stack canaries etc.).
func (p *Process) Rand64() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rng.Uint64()
}

// RegisterThreadConstructor registers fn to run on every thread before its
// start routine, in registration order. SDRaD uses this to set up its
// per-thread control data, mirroring the library's thread constructor
// (paper §IV-B, "Initialization").
func (p *Process) RegisterThreadConstructor(fn func(*Thread) error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.constructors = append(p.constructors, fn)
}

// RegisterThreadDestructor registers fn to run when a thread finishes
// (normally or after a crash), in registration order. SDRaD uses this to
// release the thread's execution domains — and their protection keys —
// mirroring pthread TLS destructors.
func (p *Process) RegisterThreadDestructor(fn func(*Thread)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.destructors = append(p.destructors, fn)
}

// runDestructors invokes registered thread destructors.
func (p *Process) runDestructors(t *Thread) {
	p.mu.Lock()
	dtors := make([]func(*Thread), len(p.destructors))
	copy(dtors, p.destructors)
	p.mu.Unlock()
	for _, fn := range dtors {
		fn(t)
	}
}

// Killed reports whether the process has terminated.
func (p *Process) Killed() bool { return p.killed.Load() }

// Done returns a channel closed when the process terminates.
func (p *Process) Done() <-chan struct{} { return p.done }

// ExitError returns the recorded termination cause, nil while running or
// after a clean Shutdown.
func (p *Process) ExitError() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.exitErr
}

// Terminate kills the process, recording cause. Idempotent; the first
// cause wins. Running thread goroutines are not preempted (goroutines
// cannot be killed) but observe Killed()/Done().
func (p *Process) Terminate(cause error) {
	p.exitOnce.Do(func() {
		p.mu.Lock()
		p.exitErr = cause
		p.mu.Unlock()
		p.killed.Store(true)
		close(p.done)
	})
}

// Shutdown terminates the process without an error cause (clean exit).
func (p *Process) Shutdown() { p.Terminate(nil) }

// Wait blocks until all spawned threads have finished, and with them the
// sweeper of every Mailbox of p: after Shutdown and Wait no goroutine
// refers to the process any more.
func (p *Process) Wait() { p.wg.Wait() }

// Thread is a simulated thread: a goroutine with a CPU context, a signal
// mask, and the SDRaD thread-local slot. A Thread must only be used from
// its own goroutine.
type Thread struct {
	id   int
	name string
	proc *Process
	cpu  *mem.CPU
	mask sig.Mask

	// Local is the thread-local storage slot used by the SDRaD library
	// for its per-thread control data.
	Local any
}

// ID returns the thread id (unique within the process).
func (t *Thread) ID() int { return t.id }

// Name returns the thread name.
func (t *Thread) Name() string { return t.name }

// Process returns the owning process.
func (t *Thread) Process() *Process { return t.proc }

// CPU returns the thread's CPU context.
func (t *Thread) CPU() *mem.CPU { return t.cpu }

// SigMask returns the thread's current signal mask.
func (t *Thread) SigMask() sig.Mask { return t.mask }

// SetSigMask replaces the thread's signal mask (sigprocmask). The mask is
// part of the execution context SDRaD saves and restores across rewinds.
func (t *Thread) SetSigMask(m sig.Mask) { t.mask = m }

// newThread allocates a thread structure.
func (p *Process) newThread(name string) *Thread {
	p.mu.Lock()
	p.nextTID++
	id := p.nextTID
	p.mu.Unlock()
	return &Thread{id: id, name: name, proc: p, cpu: p.as.NewCPU()}
}

// runConstructors invokes registered thread constructors.
func (p *Process) runConstructors(t *Thread) error {
	p.mu.Lock()
	ctors := make([]func(*Thread) error, len(p.constructors))
	copy(ctors, p.constructors)
	p.mu.Unlock()
	for _, fn := range ctors {
		if err := fn(t); err != nil {
			return fmt.Errorf("thread constructor: %w", err)
		}
	}
	return nil
}

// Attach turns the calling goroutine into a simulated thread of p and runs
// body under the fault supervisor, returning the body error or the
// CrashError for an unrecovered trap. This is how a program's main thread
// enters the simulation.
func (p *Process) Attach(name string, body func(*Thread) error) error {
	if p.Killed() {
		return ErrTerminated
	}
	t := p.newThread(name)
	if err := p.runConstructors(t); err != nil {
		return err
	}
	defer p.runDestructors(t)
	return p.supervise(t, body)
}

// Handle represents a spawned thread; Join waits for it.
type Handle struct {
	t    *Thread
	done chan struct{}
	err  error
}

// Join blocks until the thread finishes and returns its error.
func (h *Handle) Join() error {
	<-h.done
	return h.err
}

// Thread returns the underlying thread (for identification; do not call
// CPU methods from another goroutine).
func (h *Handle) Thread() *Thread { return h.t }

// Spawn starts body on a new simulated thread (new goroutine) under the
// fault supervisor, mirroring pthread_create.
func (p *Process) Spawn(name string, body func(*Thread) error) *Handle {
	t := p.newThread(name)
	h := &Handle{t: t, done: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer close(h.done)
		if p.Killed() {
			h.err = ErrTerminated
			return
		}
		if err := p.runConstructors(t); err != nil {
			h.err = err
			return
		}
		defer p.runDestructors(t)
		h.err = p.supervise(t, body)
	}()
	return h
}

// supervise runs body, converting escaped simulated traps into signal
// delivery and process termination. Traps that SDRaD recovers via its
// rewind mechanism never reach this point — they are recovered inside the
// library's guard scopes. A trap arriving here is, by construction, an
// unhandled fault (root-domain fault, or no handler installed) and kills
// the process, exactly like the default SIGSEGV disposition.
func (p *Process) supervise(t *Thread, body func(*Thread) error) (err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		info, ok := trapToSignal(r)
		if !ok {
			panic(r) // programming error, not a simulated trap
		}
		// The process signal table may still have a handler that wants to
		// observe the fault (e.g. to log it); whatever it returns, a trap
		// that propagated this far cannot be recovered, so the process
		// dies. This matches Linux: returning from a SIGSEGV handler
		// without fixing the cause re-faults forever.
		p.sigs.Deliver(&info, t.mask, t)
		if rec := p.as.Telemetry(); rec != nil {
			rec.RecordCrash(t.id)
		}
		crash := &CrashError{Thread: t.name, Info: info}
		p.Terminate(crash)
		err = crash
	}()
	return body(t)
}

// trapToSignal maps simulated trap panic values onto signals.
func trapToSignal(r any) (sig.Info, bool) {
	switch v := r.(type) {
	case *mem.Fault:
		return sig.Info{
			Signal: sig.SIGSEGV,
			Code:   int(v.Code),
			Addr:   uint64(v.Addr),
			PKey:   v.PKey,
			Cause:  v,
		}, true
	case *stack.SmashError:
		// __stack_chk_fail aborts the process: SIGABRT.
		return sig.Info{
			Signal: sig.SIGABRT,
			Addr:   uint64(v.CanaryAddr),
			Cause:  v,
		}, true
	default:
		return sig.Info{}, false
	}
}
