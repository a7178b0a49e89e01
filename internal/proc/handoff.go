package proc

import "sync"

// The client→worker hand-off, written once for every server in the tree.
// A client event — one nested domain, one recovery point in the paper's
// case studies — travels from the goroutine that issues it to the worker
// thread that serves it through the worker's Mailbox, and its results
// travel back in the event itself.
//
// An event has one shape: a connection handle, a batch of requests (a
// plain Do is a batch of one), a result slice with one entry per request,
// and one completion signal.
//
// Completion rule: every event that reached the inbox is ended exactly
// once, by the worker side — finished by the worker that served it, or
// failed by whoever took it out of the inbox and will not serve it (the
// worker when the process is already down, the mailbox's sweeper, a
// sender that saw the process die around its send) or, for events a
// worker held when it died, by the sweeper once the process is marked
// terminated. So a client waits on its own event and on nothing else:
// no request locks, writes or selects on anything process-wide (Killed,
// an atomic read, is the one process-wide thing the request path touches).
//
// Who may touch Res when: the client provides the slice when it starts
// the event and reads it only after wait reports the event finished. The
// worker writes it between taking the event and FinishRound. Nobody
// writes the results of a failed event: its owner gave up serving it
// before failing it.

// Result is one request's outcome. Closed reports that the server closed
// the connection (the request itself asked, or it was in flight in a
// scope that rewound); requests behind a close report Closed with the
// server's connection-closed error, exactly as if issued after it.
type Result struct {
	Resp   []byte
	Closed bool
	Err    error
}

// Event is one client event in a worker's Mailbox. The worker reads Conn
// and Reqs and writes Res[i] for every Reqs[i]; the mailbox's FinishRound
// hands it back. A control event has a non-nil Inspect and no requests:
// the worker calls RunInspect on its own thread instead.
type Event[C any] struct {
	Conn    C
	Reqs    [][]byte
	Res     []Result
	Inspect func(t *Thread) error

	// done is the completion signal, armed by start and released by the one
	// end; it is part of the event so that starting one allocates nothing.
	// served is written before the release and read by the client after it.
	done   sync.WaitGroup
	served bool
	// Storage for a batch of one, so Do allocates the event and nothing
	// else for its request and result.
	req1 [1][]byte
	res1 [1]Result
}

// end releases the completion signal: served when the results are filled
// in, not when the event is failed. A second end of one event is a bug in
// the completion rule and panics in the WaitGroup.
func (ev *Event[C]) end(served bool) {
	ev.served = served
	ev.done.Done()
}

// RunInspect serves a control event: it runs the closure on t, the
// worker's thread, and records the closure's error as the event's result.
func (ev *Event[C]) RunInspect(t *Thread) { ev.Res[0].Err = ev.Inspect(t) }

// Mailbox is one worker's inbox: clients start events into it and wait on
// them. The worker's loop defers Leave, takes a round of events with Next
// and TryNext, and calls FinishRound before the next Next; the mailbox
// keeps the round, so the loop keeps no list of what it owes an answer.
type Mailbox[C any] struct {
	p        *Process
	ch       chan *Event[C]
	maxBatch int
	downErr  error
	// down is closed by the sweeper once the process is down; the slow
	// paths (a start that found the inbox full, a worker that found it
	// empty) block on it and on ch, never on the process.
	down chan struct{}

	// Owned by the worker: the event it put back, which leads the next
	// round, and the round — the events taken and not yet ended.
	head *Event[C]
	held []*Event[C]

	// Events a departed worker left unended, for the sweeper; after swept
	// there is no sweeper any more and the process is down.
	mu      sync.Mutex
	orphans []*Event[C]
	swept   bool
}

// NewMailbox returns the inbox of a worker thread of p. queue is how many
// started events it holds before Start blocks (0: a start is a rendezvous
// with the worker), maxBatch the most requests one event carries, and
// down the error every request of an event reports when p terminates
// before the event finishes. Its sweeper is joined by p.Wait.
func NewMailbox[C any](p *Process, queue, maxBatch int, down error) *Mailbox[C] {
	m := &Mailbox[C]{p: p, ch: make(chan *Event[C], queue), maxBatch: maxBatch, downErr: down,
		down: make(chan struct{})}
	p.wg.Add(1)
	go m.sweep()
	return m
}

// sweep is the one place that waits on the process: when it goes down the
// sweeper wakes the slow paths and fails what no worker will serve.
func (m *Mailbox[C]) sweep() {
	defer m.p.wg.Done()
	<-m.p.Done()
	close(m.down)
	m.mu.Lock()
	orphans := m.orphans
	m.orphans, m.swept = nil, true
	m.mu.Unlock()
	for _, ev := range orphans {
		ev.end(false)
	}
	m.drain()
}

// drain fails every event in the inbox. Taking an event out of the channel
// is what makes the caller its only owner.
func (m *Mailbox[C]) drain() {
	for {
		select {
		case ev := <-m.ch:
			ev.end(false)
		default:
			return
		}
	}
}

// Cap is how many started events the inbox holds before a start blocks;
// 0 means every start is a rendezvous with the worker.
func (m *Mailbox[C]) Cap() int { return cap(m.ch) }

// Len is the number of started events the worker has not taken yet.
func (m *Mailbox[C]) Len() int {
	if m.head != nil {
		return len(m.ch) + 1
	}
	return len(m.ch)
}

// Next starts a round: it returns the next event to serve, parking while
// the inbox is empty, or nil when the process is down.
func (m *Mailbox[C]) Next() *Event[C] {
	ev := m.head
	m.head = nil
	if ev == nil {
		select {
		case ev = <-m.ch:
		default:
			select {
			case ev = <-m.ch:
			case <-m.down:
				return nil
			}
		}
	}
	return m.hold(ev)
}

// TryNext returns another event for the current round, or nil when the
// inbox is empty or the process is down.
func (m *Mailbox[C]) TryNext() *Event[C] {
	select {
	case ev := <-m.ch:
		return m.hold(ev)
	default:
		return nil
	}
}

// hold records an event the worker took. The worker checks Killed itself
// rather than trusting the sweeper to have run: a call issued after
// Terminate returned must not be served by a sibling that has not noticed.
func (m *Mailbox[C]) hold(ev *Event[C]) *Event[C] {
	if m.p.Killed() {
		ev.end(false)
		return nil
	}
	m.held = append(m.held, ev)
	return ev
}

// FinishRound hands every event of the round, its results filled in, back
// to the client waiting on it.
func (m *Mailbox[C]) FinishRound() {
	for _, ev := range m.held {
		ev.end(true)
	}
	m.held = m.held[:0]
}

// PutBack returns the event TryNext just handed out; the next Next
// returns it first.
func (m *Mailbox[C]) PutBack(ev *Event[C]) {
	m.held = m.held[:len(m.held)-1]
	m.head = ev
}

// Leave is deferred by the worker's loop. The round the worker still
// holds — it panicked while serving it — is failed, but only once the
// process is marked terminated: a client woken earlier would see the down
// error from a process that does not yet report it crashed. So before
// termination it goes to the sweeper.
func (m *Mailbox[C]) Leave() {
	left := m.held
	if m.head != nil {
		left = append(left, m.head)
	}
	m.held, m.head = nil, nil
	if len(left) == 0 {
		return
	}
	m.mu.Lock()
	if !m.swept {
		m.orphans, left = append(m.orphans, left...), nil
	}
	m.mu.Unlock()
	for _, ev := range left {
		ev.end(false)
	}
}

// start enqueues ev, returning once it is in the inbox, or false when the
// process is gone.
func (m *Mailbox[C]) start(ev *Event[C]) bool {
	if m.p.Killed() {
		return false
	}
	ev.done.Add(1)
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
	ev.done.Wait()
	return ev.served
}

// Do sends one request on conn and waits for its result.
func (m *Mailbox[C]) Do(conn C, req []byte) (resp []byte, closed bool, err error) {
	ev := &Event[C]{Conn: conn}
	ev.req1[0] = req
	ev.Reqs, ev.Res = ev.req1[:], ev.res1[:]
	if !m.start(ev) || !m.wait(ev) {
		return nil, true, m.downErr
	}
	return ev.res1[0].Resp, ev.res1[0].Closed, ev.res1[0].Err
}

// Inspect runs fn on the worker's thread between client events and
// returns its error.
func (m *Mailbox[C]) Inspect(fn func(t *Thread) error) error {
	ev := &Event[C]{Inspect: fn}
	ev.Res = ev.res1[:]
	if !m.start(ev) || !m.wait(ev) {
		return m.downErr
	}
	return ev.res1[0].Err
}

// Pending is a started pipeline: Start has queued its events, Wait
// collects their results.
type Pending[C any] struct {
	m   *Mailbox[C]
	evs []Event[C]
	res []Result
}

// Start enqueues reqs on conn, cut into events of at most maxBatch
// requests, and returns once every event is in the inbox (or the process
// is gone). It does not wait for the worker, so sequential Starts against
// a worker that is busy stage an exact backlog.
func (m *Mailbox[C]) Start(conn C, reqs [][]byte) *Pending[C] {
	h := &Pending[C]{m: m, res: make([]Result, len(reqs)),
		evs: make([]Event[C], (len(reqs)+m.maxBatch-1)/m.maxBatch)}
	for i := range h.evs {
		off := i * m.maxBatch
		end := min(off+m.maxBatch, len(reqs))
		ev := &h.evs[i]
		ev.Conn, ev.Reqs, ev.Res = conn, reqs[off:end], h.res[off:end]
		if !m.start(ev) {
			h.evs = h.evs[:i]
			break
		}
	}
	return h
}

// Wait returns one result per started request, in request order, once
// every event is ended. Results of events that finished before the
// process went down are kept; every request from the first failed event
// on reports Closed with the down error. Wait spends the handle: a second
// call returns nil.
func (h *Pending[C]) Wait() []Result {
	res, evs := h.res, h.evs
	h.res, h.evs = nil, nil
	kept, down := 0, false
	for i := range evs {
		down = !h.m.wait(&evs[i]) || down
		if !down {
			kept += len(evs[i].Reqs)
		}
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
