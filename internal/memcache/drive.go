package memcache

import (
	"bytes"
	"fmt"
	"strconv"

	"sdrad/internal/mem"
)

// storeOps abstracts the storage operations drive_machine performs, so
// the SDRaD build can defer mutations to normal domain exit (paper §V-A:
// wrapped slabs_alloc/store_item perform each operation on a copy and the
// database is updated only after the event handler leaves the domain).
// Baselines pass the *Storage itself, which applies every operation
// immediately; the hardened build passes its deferredOps.
type storeOps interface {
	Get(c *mem.CPU, key []byte) (value []byte, flags uint32, ok bool)
	GetWithCAS(c *mem.CPU, key []byte) (value []byte, flags uint32, casid uint64, ok bool)
	// AppendGet appends key's value to dst (the reply scratch) instead of
	// allocating a fresh slice per hit — the copy-once read behind the
	// zero-copy reply assembly.
	AppendGet(c *mem.CPU, key, dst []byte, withCAS bool) (out []byte, flags uint32, casid uint64, ok bool)
	Set(c *mem.CPU, key, value []byte, flags uint32) error
	Add(c *mem.CPU, key, value []byte, flags uint32) (StoreOutcome, error)
	Replace(c *mem.CPU, key, value []byte, flags uint32) (StoreOutcome, error)
	Concat(c *mem.CPU, key, data []byte, prepend bool) (StoreOutcome, error)
	CAS(c *mem.CPU, key, value []byte, flags uint32, casid uint64) (StoreOutcome, error)
	Delete(c *mem.CPU, key []byte) bool
	Touch(c *mem.CPU, key []byte) bool
	FlushAll(c *mem.CPU)
	Stats() StorageStats
}

// pendingKind tags a deferred mutation.
type pendingKind int

const (
	pendingSet pendingKind = iota + 1
	pendingDelete
	pendingFlush
)

// pendingOp is one deferred mutation. The op list is part of the event
// handler's state and is dropped wholesale when the domain is discarded,
// which is exactly the paper's atomic deferred-update behaviour ("on
// abnormal domain exit the corrupt key-value pair is discarded along with
// all other domain memory").
//
// Key and value are borrowed, not copied: they reference the request bytes
// where the parser found them — windows into the batch slot's read buffer
// inside the event domain — or a private slice the handler computed
// (incr/decr, append/prepend, the staged bset and binary-set values, any
// checked copy readBody fell back to). The one copy a store pays is
// ApplyShardBatch's, into the arena. Lifetime rule: a slot's read buffer
// is written only by the deep copy at step ④ of the NEXT batch, and the
// pending list is emptied at batch start (and zeroed wherever it is
// dropped), so a borrowed window lives exactly as long as the list that
// holds it. The lengths live in the Go slice headers, outside simulated
// memory: a compromised domain can author the bytes — it authors the
// value either way — but cannot stretch a window.
type pendingOp struct {
	kind  pendingKind
	key   []byte
	value []byte
	flags uint32
}

// deferredOps reads the shared database directly (the nested domain holds
// an RW grant on the storage data domain, as in the paper) but queues all
// mutations for application after a normal domain exit.
type deferredOps struct {
	st      *Storage
	pending []pendingOp
	// groups is apply-time scratch: per-shard op groups, reused across
	// applies so the steady state allocates nothing.
	groups [][]BatchOp
}

func (d *deferredOps) Get(c *mem.CPU, key []byte) ([]byte, uint32, bool) {
	// Read-your-writes within one event, for the atomic-request property.
	for i := len(d.pending) - 1; i >= 0; i-- {
		op := d.pending[i]
		if op.kind == pendingFlush {
			return nil, 0, false
		}
		if string(op.key) == string(key) {
			if op.kind == pendingDelete {
				return nil, 0, false
			}
			return op.value, op.flags, true
		}
	}
	return d.st.Get(c, key)
}

func (d *deferredOps) AppendGet(c *mem.CPU, key, dst []byte, withCAS bool) ([]byte, uint32, uint64, bool) {
	// Read-your-writes overlay first, mirroring Get; only the CAS id (not
	// assigned until apply time) is taken from the shared DB view.
	for i := len(d.pending) - 1; i >= 0; i-- {
		op := d.pending[i]
		if op.kind == pendingFlush {
			return dst, 0, 0, false
		}
		if string(op.key) == string(key) {
			if op.kind == pendingDelete {
				return dst, 0, 0, false
			}
			var casid uint64
			if withCAS {
				if _, _, id, inDB := d.st.GetWithCAS(c, key); inDB {
					casid = id
				}
			}
			return append(dst, op.value...), op.flags, casid, true
		}
	}
	return d.st.AppendGet(c, key, dst, withCAS)
}

func (d *deferredOps) GetWithCAS(c *mem.CPU, key []byte) ([]byte, uint32, uint64, bool) {
	// Pending writes have no CAS id yet; fall back to the shared DB view
	// for the id and overlay value reads.
	if v, f, ok := d.Get(c, key); ok {
		_, _, casid, inDB := d.st.GetWithCAS(c, key)
		if !inDB {
			casid = 0
		}
		return v, f, casid, true
	}
	return nil, 0, 0, false
}

func (d *deferredOps) Add(c *mem.CPU, key, value []byte, flags uint32) (StoreOutcome, error) {
	if _, _, exists := d.Get(c, key); exists {
		return NotStored, nil
	}
	if err := d.Set(c, key, value, flags); err != nil {
		return NotStored, err
	}
	return Stored, nil
}

func (d *deferredOps) Replace(c *mem.CPU, key, value []byte, flags uint32) (StoreOutcome, error) {
	if _, _, exists := d.Get(c, key); !exists {
		return NotStored, nil
	}
	if err := d.Set(c, key, value, flags); err != nil {
		return NotStored, err
	}
	return Stored, nil
}

func (d *deferredOps) Concat(c *mem.CPU, key, data []byte, prepend bool) (StoreOutcome, error) {
	old, flags, exists := d.Get(c, key)
	if !exists {
		return NotStored, nil
	}
	var merged []byte
	if prepend {
		merged = append(append([]byte{}, data...), old...)
	} else {
		merged = append(append([]byte{}, old...), data...)
	}
	if err := d.Set(c, key, merged, flags); err != nil {
		return NotStored, err
	}
	return Stored, nil
}

func (d *deferredOps) CAS(c *mem.CPU, key, value []byte, flags uint32, casid uint64) (StoreOutcome, error) {
	// The compare happens against the shared DB now, the swap at normal
	// domain exit — the same at-most-once atomic-update discipline the
	// paper's deferred stores follow.
	_, _, cur, ok := d.st.GetWithCAS(c, key)
	if !ok {
		return NotFoundOutcome, nil
	}
	if cur != casid {
		return CASMismatch, nil
	}
	if err := d.Set(c, key, value, flags); err != nil {
		return NotStored, err
	}
	return Stored, nil
}

func (d *deferredOps) Touch(c *mem.CPU, key []byte) bool {
	// LRU metadata only: safe to apply immediately (the nested domain
	// holds an RW grant on the storage domain).
	return d.st.Touch(c, key)
}

func (d *deferredOps) FlushAll(c *mem.CPU) {
	d.pending = append(d.pending, pendingOp{kind: pendingFlush})
}

// Set queues key=value by reference (see pendingOp for the borrow rule).
func (d *deferredOps) Set(c *mem.CPU, key, value []byte, flags uint32) error {
	if len(key) > MaxKeyLen {
		return ErrKeyTooLong
	}
	d.pending = append(d.pending, pendingOp{kind: pendingSet, key: key, value: value, flags: flags})
	return nil
}

func (d *deferredOps) Delete(c *mem.CPU, key []byte) bool {
	_, _, existed := d.Get(c, key)
	d.pending = append(d.pending, pendingOp{kind: pendingDelete, key: key})
	return existed
}

// truncate drops every op queued after the first n. The dropped entries
// are zeroed, not just cut off, so the windows they borrowed are released
// with them — a discarded batch must not keep pinning the discarded
// domain's backing span.
func (d *deferredOps) truncate(n int) {
	clear(d.pending[n:])
	d.pending = d.pending[:n]
}

func (d *deferredOps) Stats() StorageStats { return d.st.Stats() }

// apply flushes the deferred mutations to the shared database. Called
// after a normal domain exit, with root-domain rights, and only once the
// caller has re-validated the read lease of every slot the ops borrow
// from: the copies into the arena read event-domain memory.
//
// Ops are grouped per storage shard so one batch takes each shard lock
// at most once; per-key order is preserved (a key always maps to one
// shard, and the group keeps shard-local order). A flush is a global
// barrier: the groups accumulated before it are applied, then every
// shard is flushed, then grouping restarts. The first store error
// aborts the apply, as in the sequential flow.
func (d *deferredOps) apply(c *mem.CPU) error {
	if len(d.pending) == 0 {
		return nil
	}
	nsh := d.st.Shards()
	if len(d.groups) < nsh {
		d.groups = make([][]BatchOp, nsh)
	}
	flushGroups := func() error {
		for si := 0; si < nsh; si++ {
			g := d.groups[si]
			if len(g) == 0 {
				continue
			}
			err := d.st.ApplyShardBatch(c, si, g)
			clear(g)
			d.groups[si] = g[:0]
			if err != nil {
				return err
			}
		}
		return nil
	}
	for _, op := range d.pending {
		switch op.kind {
		case pendingSet, pendingDelete:
			h := hashKey(op.key)
			si := d.st.shardOf(h)
			d.groups[si] = append(d.groups[si], BatchOp{
				Delete: op.kind == pendingDelete,
				Key:    op.key, Value: op.value, Flags: op.flags,
				hash: h, hashed: true,
			})
		case pendingFlush:
			if err := flushGroups(); err != nil {
				return err
			}
			d.st.FlushAll(c)
		}
	}
	err := flushGroups()
	d.truncate(0)
	return err
}

// dmEnv is the environment drive_machine runs in: the request/response
// buffers (which live in the nested domain in the hardened build), an
// allocator for scratch memory in the current domain, and the storage
// operations view.
type dmEnv struct {
	c    *mem.CPU
	rbuf mem.Addr
	rlen int
	wbuf mem.Addr
	wcap int
	// allocScratch obtains request-scoped scratch memory in the current
	// domain (Memcached's item staging buffers).
	allocScratch func(size uint64) (mem.Addr, error)
	ops          storeOps
	// noreply suppresses the response (set by the "noreply" suffix).
	noreply bool
	// rl/wl are optional span leases over the full read/write buffers.
	// When valid they give readLine, the store-body read, and the reply
	// writer native windows; when nil or invalidated (domain switch,
	// rewind, armed injector) every access falls back to the checked
	// accessors with identical fault semantics.
	rl *mem.Lease
	wl *mem.Lease
	// reply is the reusable gather-list reply assembler (lazily created
	// for environments that never wire one up).
	reply *replyState
	// tokens is the command-line tokenizer's scratch; the worker carries it
	// from one environment to the next so a command allocates none.
	tokens [][]byte
}

// replyState assembles a response as a gather list over a reusable
// scratch buffer — the writev analog. Segments either reference scratch
// by offset (surviving scratch reallocation) or static protocol bytes,
// and flushReply materializes them into the write buffer in one pass.
type replyState struct {
	segs    []rseg
	scratch []byte
	n       int
}

// rseg is one gather segment: ext set means the bytes themselves
// (static protocol text), otherwise scratch[off:off+n].
type rseg struct {
	ext []byte
	off int
	n   int
}

func (r *replyState) reset() {
	r.segs = r.segs[:0]
	r.scratch = r.scratch[:0]
	r.n = 0
}

func (r *replyState) pushScratch(off, n int) {
	r.segs = append(r.segs, rseg{off: off, n: n})
	r.n += n
}

func (r *replyState) pushExt(b []byte) {
	r.segs = append(r.segs, rseg{ext: b, n: len(b)})
	r.n += len(b)
}

func (env *dmEnv) replyBuf() *replyState {
	if env.reply == nil {
		env.reply = &replyState{}
	}
	return env.reply
}

// flushReply gathers the segments into the write buffer, truncating at
// capacity. With a valid write lease the whole response lands with plain
// copies into the native window; otherwise each segment goes through the
// checked writer.
func (env *dmEnv) flushReply(r *replyState) int {
	if env.noreply {
		return 0
	}
	total := r.n
	if total > env.wcap {
		total = env.wcap
	}
	if env.wl != nil {
		if w, ok := env.wl.Bytes(env.wbuf, total); ok {
			off := 0
			for _, sg := range r.segs {
				if off >= total {
					break
				}
				b := sg.ext
				if b == nil {
					b = r.scratch[sg.off : sg.off+sg.n]
				}
				if off+len(b) > total {
					b = b[:total-off]
				}
				off += copy(w[off:], b)
			}
			return total
		}
	}
	off := 0
	for _, sg := range r.segs {
		if off >= total {
			break
		}
		b := sg.ext
		if b == nil {
			b = r.scratch[sg.off : sg.off+sg.n]
		}
		if off+len(b) > total {
			b = b[:total-off]
		}
		env.c.Write(env.wbuf+mem.Addr(off), b)
		off += len(b)
	}
	return total
}

// stagingSize is the fixed staging buffer the vulnerable binary-set path
// uses — the overflow target of the CVE-2011-4971 analog.
const stagingSize = 1024

// driveMachine processes one client event: it parses the request in the
// connection buffer and executes it, writing the response to the write
// buffer. It mirrors Memcached's drive_machine state machine collapsed to
// one readable function (our transport delivers complete requests).
//
// Returns the response length, whether the connection should close, and a
// protocol-level error (protocol errors produce ERROR responses, not Go
// errors).
func driveMachine(env *dmEnv) (wlen int, closeConn bool, err error) {
	// Binary-protocol frames are identified by their magic byte, exactly
	// as in memcached's try_read_command.
	if env.rlen > 0 && env.c.ReadU8(env.rbuf) == BinMagicRequest {
		return driveBinary(env)
	}
	line, bodyOff := readLine(env)
	if line == nil {
		return writeString(env, "ERROR\r\n"), false, nil
	}
	tokens := tokenize(env.tokens[:0], line)
	env.tokens = tokens
	if len(tokens) == 0 {
		return writeString(env, "ERROR\r\n"), false, nil
	}
	// The "noreply" suffix suppresses the response (memcached protocol);
	// storage commands still execute.
	if n := len(tokens); n > 1 && string(tokens[n-1]) == "noreply" {
		env.noreply = true
		tokens = tokens[:n-1]
	}
	switch string(tokens[0]) {
	case "get":
		return cmdGet(env, tokens, false)
	case "gets":
		return cmdGet(env, tokens, true)
	case "set", "add", "replace", "append", "prepend", "cas":
		return cmdStore(env, tokens, bodyOff)
	case "bset":
		return cmdBinarySet(env, tokens, bodyOff)
	case "delete":
		return cmdDelete(env, tokens)
	case "incr", "decr":
		return cmdIncrDecr(env, tokens)
	case "touch":
		return cmdTouch(env, tokens)
	case "flush_all":
		env.ops.FlushAll(env.c)
		return writeString(env, "OK\r\n"), false, nil
	case "stats":
		return cmdStats(env)
	case "version":
		return writeString(env, "VERSION 1.6.13-sdrad\r\n"), false, nil
	case "quit":
		return 0, true, nil
	default:
		return writeString(env, "ERROR\r\n"), false, nil
	}
}

// readLine extracts the command line (up to \r\n) from the request
// buffer, returning the line bytes and the offset of the body that
// follows. The read is performed through the CPU so it is subject to the
// current domain's rights.
func readLine(env *dmEnv) (line []byte, bodyOff int) {
	c, rbuf, rlen := env.c, env.rbuf, env.rlen
	max := rlen
	if max > 512 {
		max = 512 // command lines are short; bodies follow separately
	}
	// Leased fast path: one validity check, then a plain bytes.Index over
	// the native window — no per-page run walk at all.
	if env.rl != nil {
		if b, ok := env.rl.Bytes(rbuf, max); ok {
			if i := bytes.Index(b, crlfBytes); i >= 0 {
				return b[:i], i + 2
			}
			return nil, 0
		}
	}
	// Scan page runs in place instead of copying the whole head: the
	// common case (line inside one page) allocates nothing, and the
	// returned slice aliases simulated memory until the buffer is next
	// written.
	var acc []byte // spill, used only when the line crosses a page boundary
	scanned := 0
	for scanned < max {
		run := c.ReadRun(rbuf+mem.Addr(scanned), max-scanned)
		if len(acc) > 0 && acc[len(acc)-1] == '\r' && run[0] == '\n' {
			return acc[:len(acc)-1], scanned + 1
		}
		for i := 0; i+1 < len(run); i++ {
			if run[i] == '\r' && run[i+1] == '\n' {
				if acc == nil {
					return run[:i], scanned + i + 2
				}
				return append(acc, run[:i]...), scanned + i + 2
			}
		}
		acc = append(acc, run...)
		scanned += len(run)
	}
	return nil, 0
}

// readBody returns the store-command body. With a valid read lease the
// slice aliases the leased request window: a direct store consumes it
// before drive_machine returns, a deferred store keeps the window until
// the batch's apply (pendingOp states the lifetime rule). Without the
// lease — armed injector, revoked epoch — it is a checked copy, faulting
// exactly where the unleased code would. The bounds were validated by the
// caller against rlen; out-of-buffer body lengths never reach here.
func readBody(env *dmEnv, bodyOff, nbytes int) []byte {
	if env.rl != nil {
		if b, ok := env.rl.Bytes(env.rbuf+mem.Addr(bodyOff), nbytes); ok {
			return b
		}
	}
	return env.c.ReadBytes(env.rbuf+mem.Addr(bodyOff), nbytes)
}

// tokenize splits a command line on single spaces, appending the tokens
// to out.
func tokenize(out [][]byte, line []byte) [][]byte {
	start := 0
	for i := 0; i <= len(line); i++ {
		if i == len(line) || line[i] == ' ' {
			if i > start {
				out = append(out, line[start:i])
			}
			start = i + 1
		}
	}
	return out
}

// Static protocol fragments shared by the reply assembler.
var (
	crlfBytes = []byte("\r\n")
	endBytes  = []byte("END\r\n")
)

// writeString writes a response string to the write buffer; suppressed
// entirely for noreply requests.
func writeString(env *dmEnv, s string) int {
	if env.noreply {
		return 0
	}
	if len(s) > env.wcap {
		s = s[:env.wcap]
	}
	if env.wl != nil {
		if w, ok := env.wl.Bytes(env.wbuf, len(s)); ok {
			copy(w, s)
			return len(s)
		}
	}
	env.c.Write(env.wbuf, []byte(s))
	return len(s)
}

// writeResponse writes a composed response, truncating at capacity.
func writeResponse(env *dmEnv, b []byte) int {
	if env.noreply {
		return 0
	}
	if len(b) > env.wcap {
		b = b[:env.wcap]
	}
	if env.wl != nil {
		if w, ok := env.wl.Bytes(env.wbuf, len(b)); ok {
			copy(w, b)
			return len(b)
		}
	}
	env.c.Write(env.wbuf, b)
	return len(b)
}

func cmdGet(env *dmEnv, tokens [][]byte, withCAS bool) (int, bool, error) {
	if len(tokens) < 2 {
		return writeString(env, "ERROR\r\n"), false, nil
	}
	// Zero-copy assembly: each hit's value is appended once into the
	// reply scratch (straight from cache memory), the header is rendered
	// with strconv appends after it, and the gather list orders header
	// before value on the wire. One flush materializes everything.
	r := env.replyBuf()
	r.reset()
	for _, key := range tokens[1:] {
		vo := len(r.scratch)
		out, flags, casid, ok := env.ops.AppendGet(env.c, key, r.scratch, withCAS)
		r.scratch = out
		if !ok {
			r.scratch = r.scratch[:vo]
			continue
		}
		vn := len(r.scratch) - vo
		ho := len(r.scratch)
		r.scratch = append(r.scratch, "VALUE "...)
		r.scratch = append(r.scratch, key...)
		r.scratch = append(r.scratch, ' ')
		r.scratch = strconv.AppendUint(r.scratch, uint64(flags), 10)
		r.scratch = append(r.scratch, ' ')
		r.scratch = strconv.AppendUint(r.scratch, uint64(vn), 10)
		if withCAS {
			r.scratch = append(r.scratch, ' ')
			r.scratch = strconv.AppendUint(r.scratch, casid, 10)
		}
		r.scratch = append(r.scratch, '\r', '\n')
		r.pushScratch(ho, len(r.scratch)-ho)
		r.pushScratch(vo, vn)
		r.pushExt(crlfBytes)
	}
	r.pushExt(endBytes)
	return env.flushReply(r), false, nil
}

// cmdStore handles all storage commands sharing the
// "<cmd> <key> <flags> <exptime> <bytes> [casid]\r\n<data>\r\n" shape.
func cmdStore(env *dmEnv, tokens [][]byte, bodyOff int) (int, bool, error) {
	cmd := string(tokens[0])
	if len(tokens) < 5 || (cmd == "cas" && len(tokens) < 6) {
		return writeString(env, "ERROR\r\n"), false, nil
	}
	key := tokens[1]
	flags64, err1 := strconv.ParseUint(string(tokens[2]), 10, 32)
	nbytes, err2 := strconv.Atoi(string(tokens[4]))
	if err1 != nil || err2 != nil || nbytes < 0 {
		return writeString(env, "CLIENT_ERROR bad command line format\r\n"), false, nil
	}
	if bodyOff+nbytes > env.rlen {
		return writeString(env, "CLIENT_ERROR bad data chunk\r\n"), false, nil
	}
	value := readBody(env, bodyOff, nbytes)
	flags := uint32(flags64)

	var outcome StoreOutcome
	var err error
	switch cmd {
	case "set":
		err = env.ops.Set(env.c, key, value, flags)
		outcome = Stored
	case "add":
		outcome, err = env.ops.Add(env.c, key, value, flags)
	case "replace":
		outcome, err = env.ops.Replace(env.c, key, value, flags)
	case "append":
		outcome, err = env.ops.Concat(env.c, key, value, false)
	case "prepend":
		outcome, err = env.ops.Concat(env.c, key, value, true)
	case "cas":
		casid, cerr := strconv.ParseUint(string(tokens[5]), 10, 64)
		if cerr != nil {
			return writeString(env, "CLIENT_ERROR bad command line format\r\n"), false, nil
		}
		outcome, err = env.ops.CAS(env.c, key, value, flags, casid)
	}
	if err != nil {
		return writeString(env, "SERVER_ERROR "+err.Error()+"\r\n"), false, nil
	}
	switch outcome {
	case Stored:
		return writeString(env, "STORED\r\n"), false, nil
	case NotStored:
		return writeString(env, "NOT_STORED\r\n"), false, nil
	case CASMismatch:
		return writeString(env, "EXISTS\r\n"), false, nil
	default:
		return writeString(env, "NOT_FOUND\r\n"), false, nil
	}
}

func cmdTouch(env *dmEnv, tokens [][]byte) (int, bool, error) {
	if len(tokens) < 2 {
		return writeString(env, "ERROR\r\n"), false, nil
	}
	if env.ops.Touch(env.c, tokens[1]) {
		return writeString(env, "TOUCHED\r\n"), false, nil
	}
	return writeString(env, "NOT_FOUND\r\n"), false, nil
}

// cmdBinarySet is the CVE-2011-4971 analog. The real vulnerability: a
// crafted binary-protocol packet carries a huge body length which
// Memcached trusts, so a fixed-size buffer is overflowed by a memcpy of
// attacker-controlled length, corrupting the heap and crashing the
// process. Here, the "binary" set command carries the body length in its
// header and the handler copies that many bytes into a fixed staging
// buffer without validating it against the buffer size or against the
// bytes actually received.
func cmdBinarySet(env *dmEnv, tokens [][]byte, bodyOff int) (int, bool, error) {
	if len(tokens) < 3 {
		return writeString(env, "ERROR\r\n"), false, nil
	}
	key := tokens[1]
	bodyLen, err := strconv.Atoi(string(tokens[2]))
	if err != nil || bodyLen < 0 {
		return writeString(env, "CLIENT_ERROR bad command line format\r\n"), false, nil
	}
	staging, err := env.allocScratch(stagingSize)
	if err != nil {
		return writeString(env, "SERVER_ERROR out of memory\r\n"), false, nil
	}
	// BUG (intentional, the planted CVE): bodyLen comes straight from the
	// packet header. A value larger than stagingSize overflows the
	// staging buffer; larger than the connection buffer, it also overruns
	// the source. With SDRaD both are confined to the nested domain and
	// detected by the MMU.
	env.c.Copy(staging, env.rbuf+mem.Addr(bodyOff), bodyLen)
	n := bodyLen
	if n > stagingSize {
		n = stagingSize
	}
	value := env.c.ReadBytes(staging, n)
	if err := env.ops.Set(env.c, key, value, 0); err != nil {
		return writeString(env, "SERVER_ERROR "+err.Error()+"\r\n"), false, nil
	}
	return writeString(env, "STORED\r\n"), false, nil
}

func cmdDelete(env *dmEnv, tokens [][]byte) (int, bool, error) {
	if len(tokens) < 2 {
		return writeString(env, "ERROR\r\n"), false, nil
	}
	if env.ops.Delete(env.c, tokens[1]) {
		return writeString(env, "DELETED\r\n"), false, nil
	}
	return writeString(env, "NOT_FOUND\r\n"), false, nil
}

func cmdIncrDecr(env *dmEnv, tokens [][]byte) (int, bool, error) {
	if len(tokens) < 3 {
		return writeString(env, "ERROR\r\n"), false, nil
	}
	key := tokens[1]
	delta, err := strconv.ParseUint(string(tokens[2]), 10, 64)
	if err != nil {
		return writeString(env, "CLIENT_ERROR invalid numeric delta argument\r\n"), false, nil
	}
	value, flags, ok := env.ops.Get(env.c, key)
	if !ok {
		return writeString(env, "NOT_FOUND\r\n"), false, nil
	}
	cur, err := strconv.ParseUint(string(value), 10, 64)
	if err != nil {
		return writeString(env, "CLIENT_ERROR cannot increment or decrement non-numeric value\r\n"), false, nil
	}
	if string(tokens[0]) == "incr" {
		cur += delta
	} else if cur < delta {
		cur = 0
	} else {
		cur -= delta
	}
	newVal := []byte(strconv.FormatUint(cur, 10))
	if err := env.ops.Set(env.c, key, newVal, flags); err != nil {
		return writeString(env, "SERVER_ERROR "+err.Error()+"\r\n"), false, nil
	}
	return writeResponse(env, append(newVal, '\r', '\n')), false, nil
}

func cmdStats(env *dmEnv) (int, bool, error) {
	s := env.ops.Stats()
	resp := fmt.Sprintf(
		"STAT curr_items %d\r\nSTAT bytes %d\r\nSTAT evictions %d\r\nSTAT cmd_get %d\r\nSTAT cmd_set %d\r\nSTAT get_hits %d\r\nEND\r\n",
		s.Items, s.Bytes, s.Evictions, s.Gets, s.Sets, s.Hits)
	return writeString(env, resp), false, nil
}
