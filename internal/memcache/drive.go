package memcache

import (
	"bytes"
	"fmt"
	"strconv"

	"sdrad/internal/cacheline"
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
	// probe reads key for a check or a read-modify-write the client does
	// not see as a get (incr/decr): it counts no get or hit and marks
	// nothing.
	probe(c *mem.CPU, key []byte, withValue bool) (value []byte, flags uint32, ok bool)
	// RenderGet is a get that writes its reply entry into dst, the rest
	// of the write buffer (see Storage.RenderGet): it returns the entry's
	// full length, 0 on a miss.
	RenderGet(c *mem.CPU, key, dst []byte, withCAS bool) int
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
// (incr/decr, append/prepend, the staged bset value, any
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

// pendingRead is the read-your-writes overlay, for the atomic-request
// property: it scans the queued ops newest first, and decided reports
// whether one of them settles key's presence (ok) and value.
func (d *deferredOps) pendingRead(key []byte) (value []byte, flags uint32, ok, decided bool) {
	for i := len(d.pending) - 1; i >= 0; i-- {
		op := &d.pending[i]
		if op.kind == pendingFlush {
			return nil, 0, false, true
		}
		if string(op.key) == string(key) {
			return op.value, op.flags, op.kind == pendingSet, true
		}
	}
	return nil, 0, false, false
}

// probe is the read behind a check the client does not see (add,
// replace, append/prepend, delete, incr/decr): the overlay, then
// Storage.peek, so the hardened arm counts and marks what the direct arm
// does — nothing.
func (d *deferredOps) probe(c *mem.CPU, key []byte, withValue bool) ([]byte, uint32, bool) {
	if v, f, ok, decided := d.pendingRead(key); decided {
		return v, f, ok
	}
	v, f, _, ok := d.st.peek(c, key, withValue)
	return v, f, ok
}

// Get and RenderGet are the client's gets: one the overlay answers is
// counted in cmd_get and get_hits as the direct arm counts it.
func (d *deferredOps) Get(c *mem.CPU, key []byte) ([]byte, uint32, bool) {
	if v, f, ok, decided := d.pendingRead(key); decided {
		d.st.countGet(key, ok)
		return v, f, ok
	}
	return d.st.Get(c, key)
}

func (d *deferredOps) RenderGet(c *mem.CPU, key, dst []byte, withCAS bool) int {
	v, f, ok, decided := d.pendingRead(key)
	if !decided {
		return d.st.RenderGet(c, key, dst, withCAS)
	}
	d.st.countGet(key, ok)
	if !ok {
		return 0
	}
	var casid uint64
	if withCAS {
		casid = d.pendingCAS(key)
	}
	return putEntry(dst, key, v, f, withCAS, casid)
}

// pendingCAS is the CAS id the apply will give key's latest queued store:
// the apply stores each shard's ops in queue order, and every store takes
// its shard's next id. The id is exact unless another worker applies a
// store to the same shard between this event's Exit and its apply.
func (d *deferredOps) pendingCAS(key []byte) uint64 {
	si := d.st.shardOf(hashKey(key))
	n, at := 0, 0
	for i := range d.pending {
		op := &d.pending[i]
		if op.kind != pendingSet || d.st.shardOf(hashKey(op.key)) != si {
			continue
		}
		n++
		if string(op.key) == string(key) {
			at = n
		}
	}
	return d.st.casAfter(key, at)
}

// refuse answers a conditional store its precondition turned down. The
// direct arm counts every Add, Replace, Concat and CAS in cmd_set; a
// store that goes through is counted when it is applied, so a refused
// one is counted here.
func (d *deferredOps) refuse(key []byte, out StoreOutcome) (StoreOutcome, error) {
	d.st.countSet(key)
	return out, nil
}

func (d *deferredOps) Add(c *mem.CPU, key, value []byte, flags uint32) (StoreOutcome, error) {
	if _, _, exists := d.probe(c, key, false); exists {
		return d.refuse(key, NotStored)
	}
	if err := d.Set(c, key, value, flags); err != nil {
		return NotStored, err
	}
	return Stored, nil
}

func (d *deferredOps) Replace(c *mem.CPU, key, value []byte, flags uint32) (StoreOutcome, error) {
	if _, _, exists := d.probe(c, key, false); !exists {
		return d.refuse(key, NotStored)
	}
	if err := d.Set(c, key, value, flags); err != nil {
		return NotStored, err
	}
	return Stored, nil
}

func (d *deferredOps) Concat(c *mem.CPU, key, data []byte, prepend bool) (StoreOutcome, error) {
	old, flags, exists := d.probe(c, key, true)
	if !exists {
		return d.refuse(key, NotStored)
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
	// The compare happens now, against the event's own queued stores and
	// deletes first and the shared DB after them; the swap at normal
	// domain exit — the same at-most-once atomic-update discipline the
	// paper's deferred stores follow.
	var cur uint64
	_, _, ok, decided := d.pendingRead(key)
	if decided && ok {
		cur = d.pendingCAS(key)
	} else if !decided {
		_, _, cur, ok = d.st.peek(c, key, false)
	}
	if !ok {
		return d.refuse(key, NotFoundOutcome)
	}
	if cur != casid {
		return d.refuse(key, CASMismatch)
	}
	if err := d.Set(c, key, value, flags); err != nil {
		return NotStored, err
	}
	return Stored, nil
}

func (d *deferredOps) Touch(c *mem.CPU, key []byte) bool {
	// One bit in the item's own header: safe to apply immediately (the
	// nested domain holds an RW grant on the storage domain).
	return d.st.Touch(c, key)
}

func (d *deferredOps) FlushAll(c *mem.CPU) {
	d.pending = cacheline.Append(d.pending, pendingOp{kind: pendingFlush})
}

// Set queues key=value by reference (see pendingOp for the borrow rule).
func (d *deferredOps) Set(c *mem.CPU, key, value []byte, flags uint32) error {
	if len(key) > MaxKeyLen {
		return ErrKeyTooLong
	}
	d.pending = cacheline.Append(d.pending, pendingOp{kind: pendingSet, key: key, value: value, flags: flags})
	return nil
}

func (d *deferredOps) Delete(c *mem.CPU, key []byte) bool {
	_, _, existed := d.probe(c, key, false)
	d.pending = cacheline.Append(d.pending, pendingOp{kind: pendingDelete, key: key})
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
		d.groups = cacheline.Slice[[]BatchOp](nsh)
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
			d.groups[si] = cacheline.Append(d.groups[si], BatchOp{
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
	// tokens is the command-line tokenizer's scratch and scratch the get
	// reply's when the write window is refused; the worker carries both
	// from one environment to the next so a command allocates neither.
	tokens  [][]byte
	scratch []byte
}

// stagingSize is the fixed staging buffer the vulnerable bset path uses,
// the overflow target of the CVE-2011-4971 analog.
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
		if i := blockCommand(tokens[0]); i >= 0 {
			return blockCommands[i].run(env, tokens, bodyOff)
		}
		return writeString(env, "ERROR\r\n"), false, nil
	}
}

// blockCommands are the text commands that carry a data block after their
// command line: the token giving the block's length on the wire, and the
// handler. ReadRequest frames by this list and driveMachine dispatches by
// it, so no command that stores data reaches the server with its block
// cut off into a second request. bset's wire length is its fourth token;
// its third is the length the header claims, which the handler trusts
// (the planted CVE-2011-4971 analog).
var blockCommands = [...]struct {
	name   string
	lenTok int
	run    func(env *dmEnv, tokens [][]byte, bodyOff int) (int, bool, error)
}{
	{"set", 4, cmdStore},
	{"add", 4, cmdStore},
	{"replace", 4, cmdStore},
	{"append", 4, cmdStore},
	{"prepend", 4, cmdStore},
	{"cas", 4, cmdStore},
	{"bset", 3, cmdBSet},
}

// blockCommand returns cmd's index in blockCommands, or -1.
func blockCommand(cmd []byte) int {
	for i := range blockCommands {
		if blockCommands[i].name == string(cmd) {
			return i
		}
	}
	return -1
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
				out = cacheline.Append(out, line[start:i])
			}
			start = i + 1
		}
	}
	return out
}

// Static protocol fragments.
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

// cmdGet renders the reply straight into the write buffer's leased
// window: each hit's entry is written by Storage.RenderGet under its
// shard lock, the value going from cache memory into the window in one
// copy, and "END\r\n" follows. A reply longer than the buffer is cut at
// wcap, but every key is still looked up and counted. Without the window
// (an armed injector, a revoked lease) the same entries are rendered into
// a wcap-sized scratch and written through the checked writer; a noreply
// get renders nothing and counts every key.
func cmdGet(env *dmEnv, tokens [][]byte, withCAS bool) (int, bool, error) {
	if len(tokens) < 2 {
		return writeString(env, "ERROR\r\n"), false, nil
	}
	var w []byte
	windowed := false
	if !env.noreply {
		if env.wl != nil {
			w, windowed = env.wl.Bytes(env.wbuf, env.wcap)
		}
		if !windowed {
			if len(env.scratch) < env.wcap {
				env.scratch = make([]byte, env.wcap)
			}
			w = env.scratch[:env.wcap]
		}
	}
	n := 0
	for _, key := range tokens[1:] {
		n += env.ops.RenderGet(env.c, key, w[min(n, len(w)):], withCAS)
	}
	copy(w[min(n, len(w)):], endBytes)
	n = min(n+len(endBytes), len(w))
	if !windowed && n > 0 {
		return writeResponse(env, w[:n]), false, nil
	}
	return n, false, nil
}

// putEntry writes a get reply entry, "VALUE <key> <flags> <bytes>[ <cas>]
// \r\n<data>\r\n", into dst, dropping whatever does not fit, and returns
// the entry's full length.
func putEntry(dst, key, value []byte, flags uint32, withCAS bool, casid uint64) int {
	var hb [320]byte // "VALUE ", a MaxKeyLen key, three numbers, separators
	h := append(hb[:0], "VALUE "...)
	h = append(h, key...)
	h = append(h, ' ')
	h = strconv.AppendUint(h, uint64(flags), 10)
	h = append(h, ' ')
	h = strconv.AppendUint(h, uint64(len(value)), 10)
	if withCAS {
		h = append(h, ' ')
		h = strconv.AppendUint(h, casid, 10)
	}
	h = append(h, '\r', '\n')
	n := copy(dst, h)
	n += copy(dst[n:], value)
	copy(dst[n:], crlfBytes)
	return len(h) + len(value) + len(crlfBytes)
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

// cmdBSet is the CVE-2011-4971 analog. The real vulnerability: a
// crafted binary-protocol packet carries a huge body length which
// Memcached trusts, so a fixed-size buffer is overflowed by a memcpy of
// attacker-controlled length, corrupting the heap and crashing the
// process. Here, the bset command claims the body length in its command
// line and the handler copies that many bytes into a fixed staging
// buffer without validating it against the buffer size or against the
// bytes actually received.
func cmdBSet(env *dmEnv, tokens [][]byte, bodyOff int) (int, bool, error) {
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
	// client's claim. A value larger than stagingSize overflows the
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
	// memcached counts incr/decr under incr_hits, not as a get, and the
	// store below marks the item active: read without counting.
	value, flags, ok := env.ops.probe(env.c, key, true)
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
