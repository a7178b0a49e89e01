package proc

import (
	"sync"

	"sdrad/internal/mem"
)

// The client→worker hand-off, written once for every server in the tree.
// A client event — one nested domain, one recovery point in the paper's
// case studies — travels from the goroutine that issues it to the worker
// thread that serves it through the worker's Mailbox, and its results
// travel back in the event itself.
//
// An event has one shape: a connection handle, a batch of requests (a
// plain Do is a batch of one), a result slice with one entry per request,
// and a completion channel. A Do runs on an event its caller owns and
// reuses call after call, with a one-slot channel of its own; the events
// of a Pending share one channel with a slot per event.
//
// Completion rule: every event that reached the inbox is ended exactly
// once, by the worker side — finished by the worker that served it, or
// failed by whoever took it out of the inbox and will not serve it (the
// worker when the process is already down, the mailbox's sweeper, a
// sender that saw the process die around its send) or, for events a
// worker held when it died, by the sweeper once the process is marked
// terminated. Ending an event is one token on its channel, so a client
// waits on its own event's channel and on nothing else, and the worker
// parks on its own inbox and on nothing else: no request locks, writes or
// selects on anything process-wide (Killed, an atomic read, is the one
// process-wide thing the request path touches). A worker parked on an
// empty inbox learns that the process died from the sweeper's wake
// marker, a nil event in the inbox.
//
// Who may touch Res when: the client provides the slice when it starts
// the event and reads it only after wait reports the event finished. The
// worker writes it between taking the event and handing it back. Nobody
// writes the results of a failed event: its owner gave up serving it
// before failing it. A Resp lives in its connection's ReplyBlock until the
// connection's next call, which rewinds the block and hands the bytes back
// to the server.

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
// block in turn; the connection's next call rewinds it (Rewind), and from
// then on the server writes over them. So a reply is valid until its
// connection's next call. The client rewinds before it hands the call to
// the worker, and the serving thread carves while it serves the call: the
// hand-off orders the rewind before the carving, and the completion token
// orders the carving before the client reads. Replies start at 8-byte
// aligned offsets, so no two share a word, and have cap == len, so a
// caller's append cannot reach the next reply. A block holds bytes and no
// pointers: a retained reply pins at most replyBlockSize bytes and nothing
// of the server.
type ReplyBlock struct {
	buf  []byte // the block replies are carved from
	off  int    // bytes of buf carved since the last Rewind
	want int    // bytes the replies since the last Rewind asked for
}

// Rewind hands every reply carved since the last Rewind back to the block:
// the next reply is carved from the start again. A block too small for
// the replies since the last Rewind is replaced by one that doubles until
// it holds them all, or reaches replyBlockSize.
func (rb *ReplyBlock) Rewind() {
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
// Serve hands it back. A connection embeds one Event for its Do calls,
// its Conn set once to the connection itself.
type Event[C any] struct {
	Conn C
	Reqs [][]byte
	Res  []Result
	// inspect, when set, makes this a control event with no requests:
	// Serve runs it on the worker's thread instead.
	inspect func(t *Thread) error

	// done is the completion channel the one end puts its token in. served
	// is written before the token and read by the client after it. live is
	// set by start and cleared by end: a second end of one event is a bug
	// in the completion rule and panics (two ends that overlap are a data
	// race the race detector reports).
	done   chan struct{}
	served bool
	live   bool
	// Storage for a batch of one, so Do carries its request and result in
	// the event itself.
	req1 [1][]byte
	res1 [1]Result
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
			ev.Res[0].Err = ev.inspect(t)
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

// wait returns once ev is ended: true when the worker finished it.
func (m *Mailbox[C]) wait(ev *Event[C]) bool {
	<-ev.done
	return ev.served
}

// Do sends one request on ev.Conn and waits for its result. ev is the
// caller's own event, reused call after call, so one Do at a time may run
// on it. Once Do has the result it clears the event's request and result:
// an idle event refers to neither the caller's last request nor its last
// reply.
func (m *Mailbox[C]) Do(ev *Event[C], req []byte) (resp []byte, closed bool, err error) {
	if ev.done == nil {
		ev.done = make(chan struct{}, 1)
	}
	ev.req1[0] = req
	ev.Reqs, ev.Res = ev.req1[:], ev.res1[:]
	ok := m.start(ev) && m.wait(ev)
	r := ev.res1[0]
	ev.req1[0], ev.res1[0] = nil, Result{}
	if !ok {
		return nil, true, m.downErr
	}
	return r.Resp, r.Closed, r.Err
}

// Inspect runs fn on the worker's thread between client events and
// returns its error.
func (m *Mailbox[C]) Inspect(fn func(t *Thread) error) error {
	ev := &Event[C]{inspect: fn, done: make(chan struct{}, 1)}
	ev.Res = ev.res1[:]
	if !m.start(ev) || !m.wait(ev) {
		return m.downErr
	}
	return ev.res1[0].Err
}

// Pending is a started pipeline: Start has queued its events, Wait
// collects their results.
type Pending[C any] struct {
	m    *Mailbox[C]
	evs  []Event[C]
	res  []Result
	done chan struct{} // one slot per event
	one  [1]Event[C]   // the event of a pipeline that fits in one
}

// Start enqueues reqs on conn, cut into events of at most maxBatch
// requests, and returns once every event is in the inbox (or the process
// is gone). It does not wait for the worker, so sequential Starts against
// a worker that is busy stage an exact backlog.
func (m *Mailbox[C]) Start(conn C, reqs [][]byte) *Pending[C] {
	n := (len(reqs) + m.maxBatch - 1) / m.maxBatch
	h := &Pending[C]{m: m, res: make([]Result, len(reqs)), done: make(chan struct{}, n)}
	if h.evs = h.one[:]; n != 1 {
		h.evs = make([]Event[C], n)
	}
	for i := range h.evs {
		off := i * m.maxBatch
		end := min(off+m.maxBatch, len(reqs))
		ev := &h.evs[i]
		ev.Conn, ev.Reqs, ev.Res, ev.done = conn, reqs[off:end], h.res[off:end], h.done
		if !m.start(ev) {
			h.evs = h.evs[:i]
			break
		}
	}
	return h
}

// Wait returns one result per started request, in request order, once
// every event is ended: it takes one token per event, then reads each
// event's outcome. Results of events that finished before the process
// went down are kept; every request from the first failed event on
// reports Closed with the down error. Wait spends the handle: a second
// call returns nil.
func (h *Pending[C]) Wait() []Result {
	res, evs := h.res, h.evs
	h.res, h.evs = nil, nil
	for range evs {
		<-h.done
	}
	kept := 0
	for i := range evs {
		if !evs[i].served {
			break
		}
		kept += len(evs[i].Reqs)
	}
	for i := kept; i < len(res); i++ {
		res[i] = Result{Closed: true, Err: h.m.downErr}
	}
	return res
}

// DoPipeline sends reqs back-to-back on conn and returns one result per
// request, in order.
func (m *Mailbox[C]) DoPipeline(conn C, reqs [][]byte) []Result {
	return m.Start(conn, reqs).Wait()
}
