package proc

// The client→worker hand-off, written once for every server in the tree.
// A client event — one nested domain, one recovery point in the paper's
// case studies — travels from the goroutine that issues it to the worker
// thread that serves it through the worker's Mailbox, and its results
// travel back in the event itself.
//
// An event has one shape: a connection handle, a batch of requests (a
// plain Do is a batch of one), a result slice with one entry per request,
// and one completion signal. The result slice belongs to the event: the
// client provides it when it starts the event, the worker fills it in
// place between receiving the event and calling Finish, and the client
// reads it only after Finish — or never, when the process goes down
// first, because the worker may still be writing to it.

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
// and Reqs, writes Res[i] for every Reqs[i], and calls Finish once. A
// control event has a non-nil Inspect and no requests: the worker calls
// RunInspect on its own thread instead.
type Event[C any] struct {
	Conn    C
	Reqs    [][]byte
	Res     []Result
	Inspect func(t *Thread) error

	// done has room for the one Finish, so the worker never blocks on a
	// client that stopped waiting.
	done chan struct{}
	// Storage for a batch of one, so Do allocates the event and nothing
	// else for its request and result.
	req1 [1][]byte
	res1 [1]Result
}

// Finish hands the filled-in results back to the waiting client.
func (ev *Event[C]) Finish() { ev.done <- struct{}{} }

// RunInspect serves a control event: it runs the closure on t, the
// worker's thread, and finishes the event with the closure's error.
func (ev *Event[C]) RunInspect(t *Thread) {
	ev.Res[0].Err = ev.Inspect(t)
	ev.Finish()
}

// Mailbox is one worker's inbox: clients start events into it and wait on
// them, the worker's loop receives from Events.
type Mailbox[C any] struct {
	p        *Process
	ch       chan *Event[C]
	maxBatch int
	down     error
}

// NewMailbox returns the inbox of a worker thread of p. queue is how many
// started events it holds before Start blocks (0: a start is a rendezvous
// with the worker), maxBatch the most requests one event carries, and
// down the error every request of an event reports when p terminates
// before the event finishes.
func NewMailbox[C any](p *Process, queue, maxBatch int, down error) *Mailbox[C] {
	return &Mailbox[C]{p: p, ch: make(chan *Event[C], queue), maxBatch: maxBatch, down: down}
}

// Events is the channel the worker's loop receives from; its length is
// the number of started events the worker has not taken yet.
func (m *Mailbox[C]) Events() <-chan *Event[C] { return m.ch }

// start enqueues ev, returning once it is in the worker's channel, or
// false when the process is gone.
func (m *Mailbox[C]) start(ev *Event[C]) bool {
	ev.done = make(chan struct{}, 1)
	select {
	case m.ch <- ev:
		return true
	case <-m.p.Done():
		return false
	}
}

// wait returns true once the worker has finished ev, or false when the
// process goes down first; ev.Res must not be read after a false.
func (m *Mailbox[C]) wait(ev *Event[C]) bool {
	select {
	case <-ev.done:
		return true
	case <-m.p.Done():
		return false
	}
}

// Do sends one request on conn and waits for its result.
func (m *Mailbox[C]) Do(conn C, req []byte) (resp []byte, closed bool, err error) {
	ev := &Event[C]{Conn: conn}
	ev.req1[0] = req
	ev.Reqs, ev.Res = ev.req1[:], ev.res1[:]
	if !m.start(ev) || !m.wait(ev) {
		return nil, true, m.down
	}
	return ev.res1[0].Resp, ev.res1[0].Closed, ev.res1[0].Err
}

// Inspect runs fn on the worker's thread between client events and
// returns its error.
func (m *Mailbox[C]) Inspect(fn func(t *Thread) error) error {
	ev := &Event[C]{Inspect: fn}
	ev.Res = ev.res1[:]
	if !m.start(ev) || !m.wait(ev) {
		return m.down
	}
	return ev.res1[0].Err
}

// Pending is a started pipeline: Start has queued its events, Wait
// collects their results.
type Pending[C any] struct {
	m   *Mailbox[C]
	evs []*Event[C]
	res []Result
}

// Start enqueues reqs on conn, cut into events of at most maxBatch
// requests, and returns once every event is in the worker's channel (or
// the process is gone). It does not wait for the worker, so sequential
// Starts against a worker that is busy stage an exact backlog.
func (m *Mailbox[C]) Start(conn C, reqs [][]byte) *Pending[C] {
	h := &Pending[C]{m: m, res: make([]Result, len(reqs))}
	for off := 0; off < len(reqs); off += m.maxBatch {
		end := min(off+m.maxBatch, len(reqs))
		ev := &Event[C]{Conn: conn, Reqs: reqs[off:end], Res: h.res[off:end]}
		if !m.start(ev) {
			break
		}
		h.evs = append(h.evs, ev)
	}
	return h
}

// Wait returns one result per started request, in request order, once the
// worker has finished every event. Results of events that finished before
// the process went down are kept; every request from the first unfinished
// event on reports Closed with the down error. Wait spends the handle: a
// second call returns nil.
func (h *Pending[C]) Wait() []Result {
	res, evs := h.res, h.evs
	h.res, h.evs = nil, nil
	finished := 0
	for _, ev := range evs {
		if !h.m.wait(ev) {
			break
		}
		finished += len(ev.Reqs)
	}
	if finished == len(res) {
		return res
	}
	// The worker may still be filling res beyond finished: the down
	// results go into a copy (the capped slice forces append to make one).
	out := res[:finished:finished]
	for len(out) < len(res) {
		out = append(out, Result{Closed: true, Err: h.m.down})
	}
	return out
}

// DoPipeline sends reqs back-to-back on conn and returns one result per
// request, in order.
func (m *Mailbox[C]) DoPipeline(conn C, reqs [][]byte) []Result {
	return m.Start(conn, reqs).Wait()
}
