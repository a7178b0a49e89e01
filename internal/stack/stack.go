// Package stack simulates per-domain machine stacks with stack-protector
// canaries.
//
// SDRaD gives every execution domain a disjoint stack so that code running
// in a nested domain cannot affect the stacks of other domains (paper
// §IV-C, "Stack Management"). The paper's second error-detection oracle —
// besides PKU faults — is the GCC stack protector: a canary word placed
// between a frame's local buffers and its control data, verified on
// function return; SDRaD replaces glibc's __stack_chk_fail with its own
// handler so a smashed canary triggers an abnormal domain exit instead of
// process termination.
//
// In the simulation, domain code that wants stack-allocated buffers pushes
// a Frame, obtains the address of its locals, and pops the frame when the
// (simulated) function returns. Pop verifies the canary and panics with a
// *SmashError on mismatch, which the SDRaD monitor treats exactly like a
// detected run-time attack.
package stack

import (
	"errors"
	"fmt"

	"sdrad/internal/cacheline"
	"sdrad/internal/mem"
)

// Errors returned by stack operations.
var (
	ErrStackOverflow = errors.New("stack: push would overflow the stack region")
	ErrFrameOrder    = errors.New("stack: frames must be popped in LIFO order")
)

// SmashError is the panic value raised when a canary check fails — the
// simulation's __stack_chk_fail. It implements error.
type SmashError struct {
	// CanaryAddr is the address of the clobbered canary word.
	CanaryAddr mem.Addr
	// Got is the corrupted value found in place of the canary.
	Got uint64
}

// Error implements error.
func (e *SmashError) Error() string {
	return fmt.Sprintf("stack: smashing detected at 0x%x (canary is %#x)", uint64(e.CanaryAddr), e.Got)
}

// AsSmash extracts a *SmashError from a recovered panic value.
func AsSmash(recovered any) *SmashError {
	s, _ := recovered.(*SmashError)
	return s
}

// Stack is a downward-growing simulated stack inside one contiguous
// region of domain memory. It is used by a single thread at a time, which
// writes sp and depth on every push and pop (the monitor's Enter and
// Exit): the pads keep those writes off any line another thread's stack
// or record is on.
type Stack struct {
	_      cacheline.Pad
	base   mem.Addr // lowest valid address
	size   uint64
	sp     mem.Addr // current stack pointer
	canary uint64
	depth  int // live frames
	_      cacheline.Pad
}

// New returns a stack over [base, base+size) with the given canary value.
// The stack pointer starts at the top. The canary is per process in real
// systems; internal/proc supplies a random one.
func New(base mem.Addr, size uint64, canary uint64) *Stack {
	return &Stack{base: base, size: size, sp: base + mem.Addr(size), canary: canary}
}

// Base returns the lowest address of the stack region.
func (s *Stack) Base() mem.Addr { return s.base }

// Size returns the stack region size.
func (s *Stack) Size() uint64 { return s.size }

// SP returns the current stack pointer.
func (s *Stack) SP() mem.Addr { return s.sp }

// Depth returns the number of live frames.
func (s *Stack) Depth() int { return s.depth }

// Reset discards all frames and returns the stack pointer to the top.
// SDRaD uses this when rewinding: the failing domain's stack content is
// discarded wholesale.
func (s *Stack) Reset() {
	s.sp = s.base + mem.Addr(s.size)
	s.depth = 0
}

// Remaining returns the bytes left between the stack pointer and the base.
func (s *Stack) Remaining() uint64 { return uint64(s.sp - s.base) }

// Frame is one pushed stack frame: a canary word above a block of locals.
//
//	higher addresses
//	  ... caller frames ...
//	  canary (8 bytes)        <- overwritten by locals overflowing upward
//	  locals (localsSize)     <- Locals() points here
//	lower addresses            <- SP after push
type Frame struct {
	s          *Stack
	locals     mem.Addr
	localsSize int
	canaryAddr mem.Addr
	savedSP    mem.Addr
	popped     bool
}

// PushFrame allocates a frame with localsSize bytes of locals (rounded up
// to 8) protected by a canary, writing the canary and zeroing the locals.
func (s *Stack) PushFrame(c *mem.CPU, localsSize int) (*Frame, error) {
	f := new(Frame)
	if err := s.PushFrameInto(c, f, localsSize); err != nil {
		return nil, err
	}
	return f, nil
}

// PushFrameInto is PushFrame into caller-provided storage: the frame
// record is written to *f instead of the Go heap, so a caller that keeps
// the record inline (the monitor's return record) pushes without
// allocating.
func (s *Stack) PushFrameInto(c *mem.CPU, f *Frame, localsSize int) error {
	if localsSize < 0 {
		localsSize = 0
	}
	sz := (uint64(localsSize) + 7) &^ 7
	need := sz + 8
	if uint64(s.sp-s.base) < need {
		return ErrStackOverflow
	}
	*f = Frame{s: s, localsSize: int(sz), savedSP: s.sp}
	s.sp -= 8
	f.canaryAddr = s.sp
	c.WriteU64(f.canaryAddr, s.canary)
	s.sp -= mem.Addr(sz)
	f.locals = s.sp
	if sz > 0 {
		c.Memset(f.locals, 0, int(sz))
	}
	s.depth++
	return nil
}

// Locals returns the lowest address of the frame's local storage.
func (f *Frame) Locals() mem.Addr { return f.locals }

// LocalsSize returns the (aligned) size of the local storage.
func (f *Frame) LocalsSize() int { return f.localsSize }

// CanaryIntact reports whether the canary still holds its value, without
// popping the frame.
func (f *Frame) CanaryIntact(c *mem.CPU) bool {
	return c.ReadU64(f.canaryAddr) == f.s.canary
}

// MustVerify checks the canary and panics with *SmashError if it was
// clobbered, without releasing the frame. The SDRaD monitor uses it on
// domain exit to validate the return record regardless of frame order.
func (f *Frame) MustVerify(c *mem.CPU) {
	if got := c.ReadU64(f.canaryAddr); got != f.s.canary {
		panic(&SmashError{CanaryAddr: f.canaryAddr, Got: got})
	}
}

// Pop verifies the canary and releases the frame. A clobbered canary
// raises *SmashError (the __stack_chk_fail analog). Frames must pop in
// LIFO order.
func (f *Frame) Pop(c *mem.CPU) error {
	if f.popped {
		return ErrFrameOrder
	}
	if f.s.sp != f.locals {
		return ErrFrameOrder
	}
	got := c.ReadU64(f.canaryAddr)
	f.popped = true
	f.s.sp = f.savedSP
	f.s.depth--
	if got != f.s.canary {
		panic(&SmashError{CanaryAddr: f.canaryAddr, Got: got})
	}
	return nil
}
