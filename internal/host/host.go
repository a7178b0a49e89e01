// Package host is the simulated process one server runs in. memcached
// (§V-A) and NGINX (§V-B) are hardened the same way and measured as the
// same three builds (Figures 4 and 5): a glibc-like vanilla allocator,
// TLSF, and SDRaD. A Host owns everything that differs between those
// builds and nothing else: the process, the SDRaD library on the
// hardened build, the baseline heap otherwise, allocation on a domain's
// heap, data domains, guard scopes, the connection-buffer lifecycle, and
// the degraded and shed counters. internal/memcache and internal/httpd
// embed it and keep only their protocol code and one request flow each,
// so this package is the one place that switches on the variant for
// memory.
package host

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sdrad/internal/core"
	"sdrad/internal/galloc"
	"sdrad/internal/mem"
	"sdrad/internal/policy"
	"sdrad/internal/proc"
	"sdrad/internal/telemetry"
	"sdrad/internal/tlsf"
)

// Variant selects the build under test.
type Variant int

// Build variants.
const (
	// Vanilla is the unmodified baseline (glibc-like first-fit allocator).
	Vanilla Variant = iota + 1
	// TLSF swaps the allocator for TLSF but adds no isolation.
	TLSF
	// SDRaD is the hardened build: requests run in nested domains and
	// root memory comes from the SDRaD library.
	SDRaD
)

var variantNames = [...]string{Vanilla: "vanilla", TLSF: "tlsf", SDRaD: "sdrad"}

func (v Variant) String() string {
	if v < Vanilla || v > SDRaD {
		return "unknown"
	}
	return variantNames[v]
}

// ParseVariant maps a build name ("vanilla", "tlsf", "sdrad") to its
// Variant.
func ParseVariant(name string) (Variant, error) {
	for v := Vanilla; v <= SDRaD; v++ {
		if variantNames[v] == name {
			return v, nil
		}
	}
	return 0, fmt.Errorf("unknown variant %q", name)
}

// Config describes one server process.
type Config struct {
	// Name and Seed name the simulated process and fix its randomness.
	Name    string
	Seed    int64
	Variant Variant
	// RootHeap sizes the hardened build's root heap; DomainHeap its
	// default nested-domain heap (0 keeps the library default).
	RootHeap   uint64
	DomainHeap uint64
	// BaselineHeap sizes the one heap a baseline maps at provisioning;
	// root memory and everything else the server allocates come from it.
	BaselineHeap uint64
	// Telemetry, when set, is wired through the reference monitor on the
	// hardened build and through the address space on the baselines.
	Telemetry *telemetry.Recorder
	// Policy attaches a resilience-policy engine to the hardened build
	// (baselines ignore it).
	Policy *policy.Engine
}

// heap is the baseline allocator: a galloc or a TLSF heap.
type heap interface {
	Alloc(c *mem.CPU, size uint64) (mem.Addr, error)
	Free(c *mem.CPU, ptr mem.Addr) error
}

// Host is one simulated server process.
type Host struct {
	cfg Config
	p   *proc.Process
	lib *core.Library // hardened build only

	// The baselines' heap, locked: glibc's malloc is thread-safe and a
	// server may run several worker threads on it.
	mu   sync.Mutex
	heap heap

	degraded atomic.Int64 // requests answered on the quarantine path
	shed     atomic.Int64 // connections closed by load shedding
}

// New creates the process and, on the hardened build, sets up the SDRaD
// library in it. Nothing is mapped for a baseline until Provision.
func New(cfg Config) (*Host, error) {
	h := &Host{cfg: cfg, p: proc.NewProcess(cfg.Name, proc.WithSeed(cfg.Seed))}
	switch cfg.Variant {
	case SDRaD:
		opts := []core.SetupOption{core.WithRootHeapSize(cfg.RootHeap)}
		if cfg.DomainHeap != 0 {
			opts = append(opts, core.WithDefaultHeapSize(cfg.DomainHeap))
		}
		if cfg.Telemetry != nil {
			opts = append(opts, core.WithTelemetry(cfg.Telemetry))
		}
		if cfg.Policy != nil {
			opts = append(opts, core.WithPolicy(cfg.Policy))
		}
		lib, err := core.Setup(h.p, opts...)
		if err != nil {
			return nil, err
		}
		h.lib = lib
	case Vanilla, TLSF:
		if cfg.Telemetry != nil {
			h.p.AddressSpace().SetTelemetry(cfg.Telemetry)
		}
	default:
		return nil, fmt.Errorf("unknown variant %d", cfg.Variant)
	}
	return h, nil
}

// Provision runs fn on the process's init thread. A baseline first maps
// its heap there, so the server's first allocation is the first block of
// that heap on every build.
func (h *Host) Provision(fn func(t *proc.Thread) error) error {
	return h.p.Attach("init", func(t *proc.Thread) error {
		if h.lib == nil {
			if err := h.mapHeap(t.CPU()); err != nil {
				return err
			}
		}
		return fn(t)
	})
}

func (h *Host) mapHeap(c *mem.CPU) error {
	size := h.cfg.BaselineHeap
	base, err := h.p.AddressSpace().MapAnon(int(size), mem.ProtRW, 0)
	if err != nil {
		return err
	}
	if h.cfg.Variant == TLSF {
		h.heap, err = tlsf.Init(c, base, size)
	} else {
		h.heap, err = galloc.Init(c, base, size)
	}
	return err
}

// Alloc allocates size bytes from domain udi's heap on the hardened build
// (core.RootUDI is root memory), and from the baseline heap otherwise: a
// baseline has no domains, so every udi names its one heap.
func (h *Host) Alloc(t *proc.Thread, udi core.UDI, size uint64) (mem.Addr, error) {
	if h.lib != nil {
		return h.lib.Malloc(t, udi, size)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.heap.Alloc(t.CPU(), size)
}

// Free releases memory Alloc returned for the same udi.
func (h *Host) Free(t *proc.Thread, udi core.UDI, addr mem.Addr) error {
	if h.lib != nil {
		return h.lib.Free(t, udi, addr)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.heap.Free(t.CPU(), addr)
}

// DataDomain creates data domain udi with a heap of heap bytes, accessible
// from every execution domain, on the hardened build. A baseline has no
// domains: it does nothing, and Alloc on udi carves the baseline heap.
func (h *Host) DataDomain(t *proc.Thread, udi core.UDI, heap uint64) error {
	if h.lib == nil {
		return nil
	}
	return h.lib.InitDomain(t, udi, core.AsData(), core.Accessible(), core.HeapSize(heap))
}

// Scope runs body in a guard scope over domain udi on the hardened build
// (the first scope, and the first after a rewind, creates the domain from
// opts). On a baseline it is a plain call: there is no recovery point, and
// a trap in body kills the process.
func (h *Host) Scope(t *proc.Thread, udi core.UDI, body func() error, opts ...core.InitOption) error {
	if h.lib == nil {
		return body()
	}
	return h.lib.Guard(t, udi, body, opts...)
}

// ConnBufs is one client connection's read and write buffers in root
// memory, and whether the server has closed it. Only OpenConn, CloseConn
// and ShedConn change it; a server reads RBuf, WBuf and Closed.
type ConnBufs struct {
	RBuf, WBuf mem.Addr
	Closed     bool
	ready      bool
}

// OpenConn allocates b's buffers unless it already holds them. Every
// request calls it, so the held case stays small enough to inline.
func (h *Host) OpenConn(t *proc.Thread, b *ConnBufs, rsize, wsize uint64) error {
	if b.ready {
		return nil
	}
	return h.openConn(t, b, rsize, wsize)
}

func (h *Host) openConn(t *proc.Thread, b *ConnBufs, rsize, wsize uint64) error {
	rb, err := h.Alloc(t, core.RootUDI, rsize)
	if err != nil {
		return err
	}
	wb, err := h.Alloc(t, core.RootUDI, wsize)
	if err != nil {
		return err
	}
	b.RBuf, b.WBuf, b.ready = rb, wb, true
	return nil
}

// CloseConn closes the connection once: it frees the buffers if it holds
// them and reports whether the connection was still open.
func (h *Host) CloseConn(t *proc.Thread, b *ConnBufs) bool {
	if b.Closed {
		return false
	}
	b.Closed = true
	if b.ready {
		_ = h.Free(t, core.RootUDI, b.RBuf)
		_ = h.Free(t, core.RootUDI, b.WBuf)
		b.ready = false
	}
	return true
}

// ShedConn is the degraded paths' answer to a shedding domain: the
// connection is closed outright, and counted once.
func (h *Host) ShedConn(t *proc.Thread, b *ConnBufs) {
	if h.CloseConn(t, b) {
		h.shed.Add(1)
	}
}

// NoteDegraded counts one request answered on the quarantine path.
func (h *Host) NoteDegraded() { h.degraded.Add(1) }

// Degraded reports how many requests were answered on the quarantine
// path.
func (h *Host) Degraded() int64 { return h.degraded.Load() }

// Shed reports how many connections load shedding closed.
func (h *Host) Shed() int64 { return h.shed.Load() }

// Process exposes the simulated process.
func (h *Host) Process() *proc.Process { return h.p }

// Library exposes the SDRaD library of the hardened build (nil
// otherwise).
func (h *Host) Library() *core.Library { return h.lib }

// Stop shuts the process down and waits for its threads.
func (h *Host) Stop() {
	h.p.Shutdown()
	h.p.Wait()
}

// Crashed reports whether the process died (a baseline under attack) and
// the recorded cause.
func (h *Host) Crashed() (bool, error) {
	if !h.p.Killed() {
		return false, nil
	}
	return h.p.ExitError() != nil, h.p.ExitError()
}

// Rewinds reports how many abnormal domain exits the process recovered
// (0 for the baselines).
func (h *Host) Rewinds() int64 {
	if h.lib == nil {
		return 0
	}
	return h.lib.Stats().Rewinds.Load()
}

// MappedBytes is the resident-set-size analog: bytes of simulated memory
// the process currently maps.
func (h *Host) MappedBytes() int64 {
	return h.p.AddressSpace().Stats().MappedBytes.Load()
}
