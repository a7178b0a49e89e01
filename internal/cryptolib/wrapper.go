package cryptolib

import (
	"errors"
	"fmt"

	"sdrad/internal/core"
	"sdrad/internal/mem"
	"sdrad/internal/proc"
	"sdrad/internal/telemetry"
)

// Mode selects how data crosses between the application and the isolated
// crypto domain (§IV-A's three design choices, plus the unisolated
// native baseline measured by the paper's speed benchmark).
type Mode int

// Wrapper modes.
const (
	// ModeNative calls the engine directly with no isolation.
	ModeNative Mode = iota + 1
	// ModeCopyOut (design choice 1): the crypto domain reads the input
	// directly from its read-only parent; output is staged in the shared
	// data domain and copied out by the caller.
	ModeCopyOut
	// ModeCopyBoth (design choice 2): input and output both cross
	// through the shared data domain.
	ModeCopyBoth
	// ModeShared (design choice 3): the caller keeps its buffers in the
	// shared data domain; no copies at all.
	ModeShared
)

func (m Mode) String() string {
	switch m {
	case ModeNative:
		return "native"
	case ModeCopyOut:
		return "copy-out"
	case ModeCopyBoth:
		return "copy-both"
	case ModeShared:
		return "shared"
	default:
		return "unknown"
	}
}

// Domain indices used by the wrapper.
const (
	// OpenSSLUDI is the persistent inaccessible domain holding the
	// library context and key material.
	OpenSSLUDI = core.UDI(12)
	// OpenSSLDataUDI is the shared data domain for argument passing.
	OpenSSLDataUDI = core.UDI(13)
)

// Crypto is the SDRaD-wrapped cipher: an engine whose context lives in a
// persistent nested domain that is inaccessible to its parent, with
// arguments passed per the selected mode. One Crypto belongs to one
// thread (domains are per-thread).
type Crypto struct {
	lib  *core.Library
	eng  *Engine
	mode Mode

	ctx mem.Addr // inside the crypto domain (ModeNative: root memory)

	dataBuf mem.Addr // staging buffer in the shared data domain
	dataCap int

	mOps *telemetry.Counter // nil without telemetry
}

// NewCrypto builds the wrapper on thread t: it creates the inaccessible
// crypto domain and the shared data domain, generates the key inside the
// domain, and initializes the cipher there. bufCap bounds the largest
// EncryptUpdate input.
//
// The shared data domain is in every thread's policy, so outside
// ModeNative t must be lib's only live thread: with another live,
// NewCrypto returns core.ErrSharedTopology. Build the wrapper before
// spawning threads.
//
// For ModeNative, lib may be nil and everything lives in plain memory.
func NewCrypto(t *proc.Thread, lib *core.Library, eng *Engine, mode Mode, key []byte, bufCap int) (*Crypto, error) {
	if len(key) != 32 {
		return nil, ErrBadKeyLen
	}
	cr := &Crypto{lib: lib, eng: eng, mode: mode, dataCap: bufCap}
	if lib != nil {
		if rec := lib.Telemetry(); rec != nil {
			cr.mOps = rec.Registry().CounterVec("sdrad_crypto_ops_total",
				"Crypto-wrapper operations, by kind.", "op").With("encrypt_update")
		}
	}
	c := t.CPU()

	if mode == ModeNative {
		if lib == nil {
			return nil, errors.New("cryptolib: native mode requires a library for root allocations")
		}
		ctx, err := lib.Malloc(t, core.RootUDI, CtxSize)
		if err != nil {
			return nil, err
		}
		keyBuf, err := lib.Malloc(t, core.RootUDI, 32)
		if err != nil {
			return nil, err
		}
		c.Write(keyBuf, key)
		if err := eng.EncryptInit(c, ctx, keyBuf, 32); err != nil {
			return nil, err
		}
		c.Memset(keyBuf, 0, 32)
		_ = lib.Free(t, core.RootUDI, keyBuf)
		cr.ctx = ctx
		return cr, nil
	}

	// Shared argument-passing data domain, accessible to the caller.
	if err := lib.InitDomain(t, OpenSSLDataUDI, core.AsData(), core.Accessible(),
		core.HeapSize(uint64(bufCap)*2+GCMTagSize*2+64*1024)); err != nil {
		return nil, err
	}
	buf, err := lib.Malloc(t, OpenSSLDataUDI, uint64(bufCap)*2+GCMTagSize*2)
	if err != nil {
		return nil, err
	}
	cr.dataBuf = buf

	// The crypto domain itself: NOT accessible to the parent — the whole
	// point is that callers can never read the context or key.
	if err := lib.InitDomain(t, OpenSSLUDI, core.HeapSize(256*1024),
		core.Grant(OpenSSLDataUDI, mem.ProtRW)); err != nil {
		return nil, err
	}

	// Stage the key through the data domain, then initialize the context
	// inside the crypto domain and scrub the staged copy.
	c.Write(cr.dataBuf, key)
	gerr := lib.Guard(t, OpenSSLUDI, func() error {
		if err := lib.Enter(t, OpenSSLUDI); err != nil {
			return err
		}
		ctx, err := lib.Malloc(t, OpenSSLUDI, CtxSize)
		if err != nil {
			return err
		}
		cr.ctx = ctx
		if err := eng.EncryptInit(c, ctx, cr.dataBuf, 32); err != nil {
			return err
		}
		return lib.Exit(t)
	})
	c.Memset(cr.dataBuf, 0, 32)
	if gerr != nil {
		return nil, fmt.Errorf("cryptolib: initializing crypto domain: %w", gerr)
	}
	return cr, nil
}

// DataBuf returns the shared data-domain staging buffer; ModeShared
// callers place their plaintext at DataBuf and read ciphertext at
// DataBuf+bufCap+GCMTagSize.
func (cr *Crypto) DataBuf() mem.Addr { return cr.dataBuf }

// SharedOut returns the ciphertext area for ModeShared.
func (cr *Crypto) SharedOut() mem.Addr {
	return cr.dataBuf + mem.Addr(cr.dataCap) + GCMTagSize
}

// EncryptUpdate is the wrapped EVP_EncryptUpdate of Listing 2: it moves
// the arguments across the isolation boundary per the configured mode,
// runs the real cipher inside the inaccessible domain, and moves the
// result back. in/out are the caller's buffers (root memory for modes 1
// and 2; inside the data domain for mode 3, in which case out may be 0
// to use SharedOut).
func (cr *Crypto) EncryptUpdate(t *proc.Thread, out, in mem.Addr, inl int) (int, error) {
	if cr.mOps != nil {
		cr.mOps.Inc()
	}
	if cr.mode == ModeNative {
		return cr.eng.EncryptUpdate(t.CPU(), cr.ctx, out, in, inl)
	}
	if inl > cr.dataCap {
		return 0, fmt.Errorf("cryptolib: input %d exceeds staging capacity %d", inl, cr.dataCap)
	}
	lib := cr.lib
	c := t.CPU()

	inArea := cr.dataBuf
	outArea := cr.dataBuf + mem.Addr(cr.dataCap) + GCMTagSize
	switch cr.mode {
	case ModeCopyBoth:
		// ② copy the input into the shared data domain.
		lib.Copy(t, inArea, in, inl)
	case ModeCopyOut:
		// ④ the domain will read the caller's buffer directly (the root
		// domain is readable from nested domains).
		inArea = in
	case ModeShared:
		inArea = in
		if out != 0 {
			outArea = out
		}
	}

	var outl int
	gerr := lib.Guard(t, OpenSSLUDI, func() error {
		if err := lib.Enter(t, OpenSSLUDI); err != nil {
			return err
		}
		var err error
		outl, err = cr.eng.EncryptUpdate(c, cr.ctx, outArea, inArea, inl)
		if eerr := lib.Exit(t); eerr != nil {
			return eerr
		}
		return err
	})
	if gerr != nil {
		return 0, gerr
	}
	// ⑤ copy the ciphertext back to the caller (modes 1 and 2).
	if cr.mode == ModeCopyOut || cr.mode == ModeCopyBoth {
		lib.Copy(t, out, outArea, outl)
	}
	return outl, nil
}

// Reinit re-creates the crypto domain after an abnormal exit destroyed it
// (the paper's NGINX+OpenSSL case study re-initializes the OpenSSL domain
// and continues). A fresh key must be provided — the old one is gone with
// the domain, exactly as the paper notes for lost TLS session keys.
func (cr *Crypto) Reinit(t *proc.Thread, key []byte) error {
	if cr.mode == ModeNative {
		return errors.New("cryptolib: native mode has no domain to reinitialize")
	}
	if len(key) != 32 {
		return ErrBadKeyLen
	}
	lib := cr.lib
	c := t.CPU()
	if err := lib.InitDomain(t, OpenSSLUDI, core.HeapSize(256*1024),
		core.Grant(OpenSSLDataUDI, mem.ProtRW)); err != nil && !errors.Is(err, core.ErrAlreadyInit) {
		return err
	}
	c.Write(cr.dataBuf, key)
	gerr := lib.Guard(t, OpenSSLUDI, func() error {
		if err := lib.Enter(t, OpenSSLUDI); err != nil {
			return err
		}
		ctx, err := lib.Malloc(t, OpenSSLUDI, CtxSize)
		if err != nil {
			return err
		}
		cr.ctx = ctx
		if err := cr.eng.EncryptInit(c, ctx, cr.dataBuf, 32); err != nil {
			return err
		}
		return lib.Exit(t)
	})
	c.Memset(cr.dataBuf, 0, 32)
	return gerr
}

// ContextAddr exposes the context address for the key-isolation tests.
func (cr *Crypto) ContextAddr() mem.Addr { return cr.ctx }
