package proc

import (
	"sync"

	"sdrad/internal/cacheline"
	"sdrad/internal/mem"
)

// The client→worker hand-off, written once for every server in the tree.
// A client event — one nested domain, one recovery point in the paper's
// case studies — travels from the goroutine that issues it to the worker
// thread that serves it through the worker's Mailbox, and its results
// travel back in the event itself.
//
// A connection makes every call on one record, a Call, whose events,
// results, completion channel (a slot per event) and reply block it
// reuses call after call, and every call starts in one place, begin. An
// event is a connection handle, a batch of requests (a Do is a batch of
// one, a pipeline is cut into batches of at most maxBatch) and a result
// slice with one entry per request.
//
// Completion rule: every event that reached the inbox is ended exactly
// once, by the worker side — finished by the worker that served it, or
// failed by whoever took it out of the inbox and will not serve it (the
// worker when the process is already down, the mailbox's sweeper, a
// sender that saw the process die around its send) or, for events a
// worker held when it died, by the sweeper once the process is marked
// terminated. Ending an event is one token on its channel, so a client
// waits on its own record's channel and on nothing else, and the worker
// parks on its own inbox and on nothing else: no request locks, writes or
// selects on anything process-wide (Killed, an atomic read, is the one
// process-wide thing the request path touches). A worker parked on an
// empty inbox learns that the process died from the sweeper's wake
// marker, a nil event in the inbox.
//
// Who may touch Res when: the record provides the slice when the call
// starts and the client reads it only after Wait has a token per event.
// The worker writes it between taking the event and handing it back.
// Nobody writes the results of a failed event: its owner gave up serving
// it before failing it. The results, and every Resp in them, are the
// connection's until its next call, which rewinds the reply block and
// clears the results.

// Result is one request's outcome. Closed reports that the server closed
// the connection (the request itself asked, or it was in flight in a
// scope that rewound); requests behind a close report Closed with the
// server's connection-closed error, exactly as if issued after it.
type Result struct {
	Resp   []byte
	Closed bool
	Err    error
}

// replyBlockSize caps the block a ReplyBlock keeps: the block doubles
// from replyBlockMin to hold a call's replies, up to this size, so a
// connection keeps at most this many bytes between calls, and the replies
// of a call that outgrow it get slices of their own.
const replyBlockSize = 32 << 10

// replyBlockMin is the size a ReplyBlock's block starts doubling from.
const replyBlockMin = 512

// ReplyBlock is a connection's source of Resp slices: each reply of a call
// is carved from a block the connection owns and reuses call after call,
// so delivering one costs a copy and, once the block has grown to the
// connection's calls, no allocation. One call's replies come from the
// block in turn; the connection's next call rewinds it, and from then on
// the server writes over them. So a reply is valid until its connection's
// next call. The call's start rewinds before the hand-off, and the
// serving thread carves while it serves the call: the hand-off orders the
// rewind before the carving, and the completion token orders the carving
// before the client reads. Replies start at 8-byte aligned offsets, so no
// two share a word, and have cap == len, so a caller's append cannot
// reach the next reply. A block holds bytes and no pointers: a retained
// reply pins at most replyBlockSize bytes and nothing of the server.
type ReplyBlock struct {
	buf  []byte // the block replies are carved from
	off  int    // bytes of buf carved since the last rewind
	want int    // bytes the replies since the last rewind asked for
}

// rewind hands every reply carved since the last rewind back to the block:
// the next reply is carved from the start again. A block too small for
// the replies since the last rewind is replaced by one that doubles until
// it holds them all, or reaches replyBlockSize.
func (rb *ReplyBlock) rewind() {
	if rb.want > len(rb.buf) && len(rb.buf) < replyBlockSize {
		size := max(len(rb.buf), replyBlockMin)
		for size < rb.want && size < replyBlockSize {
			size *= 2
		}
		rb.buf = make([]byte, size)
	}
	rb.off, rb.want = 0, 0
}

// Read returns the n bytes at addr as a reply: one copy from lease's
// window into the block when the lease covers them and is (or renews to)
// valid, the checked reader's copy otherwise, so a refused window faults
// exactly where an unleased read would. n <= 0 yields nil.
func (rb *ReplyBlock) Read(c *mem.CPU, lease *mem.Lease, addr mem.Addr, n int) []byte {
	if n <= 0 {
		return nil
	}
	if b, ok := lease.Bytes(addr, n); ok {
		return rb.copy(b)
	}
	return c.ReadBytes(addr, n)
}

// copy carves len(b) bytes from the block and copies b into them. A reply
// that does not fit the rest of the block gets a slice of its own, whole
// words long, so that it too starts 8-byte aligned.
func (rb *ReplyBlock) copy(b []byte) []byte {
	n := len(b)
	step := (n + 7) &^ 7
	rb.want += step
	var out []byte
	if step > len(rb.buf)-rb.off {
		out = make([]byte, step)[:n:n]
	} else {
		out = rb.buf[rb.off : rb.off+n : rb.off+n]
		rb.off += step
	}
	copy(out, b)
	return out
}

// Event is one client event in a worker's Mailbox. The worker's serve
// function reads Conn and Reqs and writes Res[i] for every Reqs[i];
// Serve hands it back.
type Event[C any] struct {
	Conn C
	Reqs [][]byte
	Res  []Result
	// inspect, when set, makes this a control event with no requests:
	// Serve runs it on the worker's thread instead.
	inspect func(t *Thread)

	// done is the completion channel the one end puts its token in. served
	// is written before the token and read by the client after it. live is
	// set by start and cleared by end: a second end of one event is a bug
	// in the completion rule and panics (two ends that overlap are a data
	// race the race detector reports).
	done   chan struct{}
	served bool
	live   bool
}

// end hands the event back: served when the results are filled in, not
// when the event is failed. The token is the last thing end touches, so
// the client may reuse the event as soon as it has it.
func (ev *Event[C]) end(served bool) {
	if !ev.live {
		panic("proc: event ended twice")
	}
	ev.live, ev.served = false, served
	ev.done <- struct{}{}
}

// Mailbox is one worker's inbox: clients start events into it and wait on
// them, and the worker's thread runs Serve over it.
type Mailbox[C any] struct {
	p        *Process
	ch       chan *Event[C]
	maxBatch int
	downErr  error
	// down is closed by the sweeper once the process is down; a start that
	// found the inbox full blocks on it and on ch, never on the process.
	down chan struct{}
	// gone is closed when the worker leaves Serve, so that putting the wake
	// marker never waits for a worker that will not take it.
	gone chan struct{}

	// Events a departed worker left unended, for the sweeper; after swept
	// there is no sweeper any more and the process is down. serving records
	// a worker that entered Serve before the sweep: the sweeper wakes it.
	mu      sync.Mutex
	orphans []*Event[C]
	swept   bool
	serving bool
}

// NewMailbox returns the inbox of a worker thread of p. queue is how many
// started events it holds before Start blocks (0: a start is a rendezvous
// with the worker), maxBatch the most requests one event carries, and
// down the error every request of an event reports when p terminates
// before the event finishes. Its sweeper is joined by p.Wait.
func NewMailbox[C any](p *Process, queue, maxBatch int, down error) *Mailbox[C] {
	m := &Mailbox[C]{p: p, ch: make(chan *Event[C], queue), maxBatch: maxBatch, downErr: down,
		down: make(chan struct{}), gone: make(chan struct{})}
	p.wg.Add(1)
	go m.sweep()
	return m
}

// sweep is the one place that waits on the process: when it goes down the
// sweeper fails what no worker will serve, then wakes a worker parked on
// the empty inbox.
func (m *Mailbox[C]) sweep() {
	defer m.p.wg.Done()
	<-m.p.Done()
	close(m.down)
	m.mu.Lock()
	orphans, serving := m.orphans, m.serving
	m.orphans, m.swept = nil, true
	m.mu.Unlock()
	for _, ev := range orphans {
		ev.end(false)
	}
	m.drain()
	if serving {
		m.wake()
	}
}

// drain fails every event in the inbox. Taking an event out of the channel
// is what makes the caller its only owner. A drainer that takes the wake
// marker puts it back once the inbox is empty.
func (m *Mailbox[C]) drain() {
	woke := false
	for {
		select {
		case ev := <-m.ch:
			if ev == nil {
				woke = true
				continue
			}
			ev.end(false)
		default:
			if woke {
				m.wake()
			}
			return
		}
	}
}

// wake puts the wake marker, a nil event, in the inbox, or gives up once
// the worker has left Serve. The inbox may be a rendezvous, so this waits
// for the worker to take it.
func (m *Mailbox[C]) wake() {
	select {
	case m.ch <- nil:
	case <-m.gone:
	}
}

// Serve is a worker thread's loop, run on t until the process is down.
// It takes one event at a time: a control event runs on t, a client
// event goes to serve, which fills in its results; then the event goes
// back to the client waiting on it before the next is taken, so nothing
// serve does spans two events.
func (m *Mailbox[C]) Serve(t *Thread, serve func(ev *Event[C])) {
	m.mu.Lock()
	late := m.swept
	m.serving = !late
	m.mu.Unlock()
	if late {
		return // the sweeper has been and will put no wake marker
	}
	defer close(m.gone)
	var held *Event[C] // taken and not yet ended: what a dying worker owes
	defer func() { m.leave(held) }()
	for {
		ev := m.next()
		if ev == nil {
			return
		}
		held = ev
		if ev.inspect != nil {
			ev.inspect(t)
		} else {
			serve(ev)
		}
		held = nil
		ev.end(true)
	}
}

// next returns the next event to serve, parking while the inbox is empty,
// or nil when the process is down: the wake marker never reaches serve.
// The worker checks Killed itself rather than trusting the sweeper to
// have run: a call issued after Terminate returned must not be served by
// a sibling that has not noticed.
func (m *Mailbox[C]) next() *Event[C] {
	ev := <-m.ch
	if ev == nil {
		return nil
	}
	if m.p.Killed() {
		ev.end(false)
		return nil
	}
	return ev
}

// leave runs when the worker's loop exits with held, the event it was
// serving when it panicked (nil on a clean exit). That event is failed,
// but only once the process is marked terminated: a client woken earlier
// would see the down error from a process that does not yet report it
// crashed. So before termination it goes to the sweeper.
func (m *Mailbox[C]) leave(ev *Event[C]) {
	if ev == nil {
		return
	}
	m.mu.Lock()
	if !m.swept {
		m.orphans, ev = append(m.orphans, ev), nil
	}
	m.mu.Unlock()
	if ev != nil {
		ev.end(false)
	}
}

// start enqueues ev, returning once it is in the inbox, or false when the
// process is gone.
func (m *Mailbox[C]) start(ev *Event[C]) bool {
	if m.p.Killed() {
		return false
	}
	ev.live = true
	select {
	case m.ch <- ev:
	default:
		select {
		case m.ch <- ev:
		case <-m.down:
			return false
		}
	}
	if m.p.Killed() {
		// The process died around the send, so ev may have entered the
		// inbox behind the sweeper's back.
		m.drain()
	}
	return true
}

// Inspect runs fn on the worker's thread between client events and
// returns its error.
func (m *Mailbox[C]) Inspect(fn func(t *Thread) error) error {
	var err error
	ev := &Event[C]{inspect: func(t *Thread) { err = fn(t) }, done: make(chan struct{}, 1)}
	if !m.start(ev) || !m.wait(ev) {
		return m.downErr
	}
	return err
}

// wait returns once ev is ended: true when the worker finished it.
func (m *Mailbox[C]) wait(ev *Event[C]) bool {
	<-ev.done
	return ev.served
}

// Call is a connection's call record: everything one call needs, reused
// call after call, so a warm call of any length allocates nothing. A
// connection carries one and takes one call at a time on it — a Do, or
// a pipeline from Start through its Wait — and everything a call returns
// (results and reply bytes) is the connection's until its next call.
type Call[C any] struct {
	m *Mailbox[C]
	// evs are the record's events and res its results: the inline ones
	// until a longer call arrives, then slices as long as the longest call
	// so far. done has a slot per event. started are the events of the
	// call in flight, nil once Wait has them all. What the worker touches
	// comes first, on as few lines as it fits in.
	one     [1]Event[C]
	res1    [1]Result
	req1    [1][]byte  // the request of a call of one
	Replies ReplyBlock // where the serving thread carves the call's replies
	started []Event[C]
	res     []Result
	evs     []Event[C]
	done    chan struct{}
}

// Bind ties the record to the mailbox its calls go to and to conn, the
// connection its events carry. A connection binds its record once, when
// it is made.
func (c *Call[C]) Bind(m *Mailbox[C], conn C) {
	c.m, c.one[0].Conn, c.evs, c.res = m, conn, c.one[:], c.res1[:]
}

// begin is the one place a call starts: it hands the last call's replies
// back to the reply block and clears its results, so a result the server
// does not write reads as zero rather than as the last call's, and
// returns the n results of this one.
func (c *Call[C]) begin(n int) []Result {
	if c.started != nil {
		panic("proc: a call started before the last one was waited for")
	}
	if c.done == nil { // made on the caller's goroutine: two made in a row share a line
		c.done = make(chan struct{}, 1)
	}
	c.Replies.rewind()
	clear(c.res)
	if cap(c.res) < n {
		c.res = cacheline.Slice[Result](n)
	}
	c.res = c.res[:n]
	return c.res
}

// Inline starts a call of one that its caller serves itself, with no
// hand-off: it returns the batch to serve and its result.
func (c *Call[C]) Inline(req []byte) ([][]byte, []Result) {
	c.req1[0] = req
	return c.req1[:], c.begin(1)
}

// Start enqueues reqs, cut into events of at most maxBatch requests, and
// returns once every event is in the inbox (or the process is gone), with
// the record as the handle whose Wait collects the results. It does not
// wait for the worker, so sequential Starts on distinct connections
// against a worker that is busy stage an exact backlog.
func (c *Call[C]) Start(reqs [][]byte) *Call[C] {
	res, m := c.begin(len(reqs)), c.m
	n := (len(reqs) + m.maxBatch - 1) / m.maxBatch
	if len(c.evs) < n {
		c.evs, c.done = cacheline.Slice[Event[C]](n), make(chan struct{}, n)
	}
	c.started = c.evs[:n]
	for i := range c.started {
		off, end := i*m.maxBatch, min((i+1)*m.maxBatch, len(reqs))
		ev := &c.started[i]
		ev.Conn, ev.Reqs, ev.Res, ev.done = c.one[0].Conn, reqs[off:end], res[off:end], c.done
		if !m.start(ev) {
			ev.Reqs, c.started = nil, c.started[:i]
			break
		}
	}
	return c
}

// Wait returns one result per started request, in request order, once
// every event is ended: it takes one token per event, then reads each
// event's outcome. Results of events that finished before the process
// went down are kept; every request from the first failed event on
// reports Closed with the down error. Wait drops every request, so an
// idle record references none, and ends the call: a second Wait returns
// nil.
func (c *Call[C]) Wait() []Result {
	evs := c.started
	if evs == nil {
		return nil
	}
	c.started = nil
	for range evs {
		<-c.done
	}
	kept, failed := 0, false
	for i := range evs {
		if failed = failed || !evs[i].served; !failed {
			kept += len(evs[i].Reqs)
		}
		evs[i].Reqs = nil
	}
	for i := kept; i < len(c.res); i++ {
		c.res[i] = Result{Closed: true, Err: c.m.downErr}
	}
	return c.res
}

// Do sends one request and waits for its result: a call of one, with
// Start and Wait written out for the record's first event.
func (c *Call[C]) Do(req []byte) (resp []byte, closed bool, err error) {
	res, ev := c.begin(1), &c.evs[0]
	c.req1[0] = req
	ev.Reqs, ev.Res, ev.done = c.req1[:], res, c.done
	ok := c.m.start(ev) && c.m.wait(ev)
	ev.Reqs, c.req1[0] = nil, nil
	if !ok {
		return nil, true, c.m.downErr
	}
	return res[0].Resp, res[0].Closed, res[0].Err
}
