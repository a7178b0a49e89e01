package main

import (
	"math/rand"

	"sdrad/internal/httpd"
	"sdrad/internal/memcache"
	"sdrad/internal/ycsb"
)

// streamLen is each client's planned operation count. A client wraps
// around its sequence after about two seconds of depth-1 traffic, which
// keeps planning out of the timed slices without holding minutes of ops.
const streamLen = 1 << 19

// A stream is everything a workload's clients send, generated before any
// slice is timed: a table of request byte slices and, per client, the
// order in which that client draws from it. Nothing is formatted or
// allocated by a client while it is being measured.
type stream struct {
	// reqs is the request table. Memcache workloads hold one get per
	// record followed by one set per record; httpd holds the one request.
	reqs [][]byte
	// seq[c] is client c's sequence of indices into reqs.
	seq [][]uint32
	// records is the memcache keyspace: record i's get is reqs[i], its set
	// (what the load phase sends) reqs[records+i]. Zero for httpd.
	records int
}

// newStream plans the workload's traffic from seed: the same seed gives
// byte-identical requests in the same order.
func newStream(w *workload, seed int64) (*stream, error) {
	if w.httpd {
		st := &stream{reqs: [][]byte{httpd.FormatRequest(httpPath, true)}}
		for c := 0; c < clients; c++ {
			st.seq = append(st.seq, []uint32{0})
		}
		return st, nil
	}
	runner, err := ycsb.NewRunner(ycsb.Config{
		Records:        w.records,
		ReadProportion: w.readShare,
		ValueSize:      valueSize,
		Distribution:   w.dist,
		Seed:           seed,
	})
	if err != nil {
		return nil, err
	}
	st := &stream{reqs: make([][]byte, 2*w.records), records: w.records}
	for i := 0; i < w.records; i++ {
		key := ycsb.Key(i)
		st.reqs[i] = memcache.FormatGet(key)
		st.reqs[w.records+i] = memcache.FormatSet(key, ycsb.Value(i, valueSize), 0)
	}
	plan := runner.OpPlanner()
	ops := make([]ycsb.Op, streamLen)
	for c := 0; c < clients; c++ {
		plan(rand.New(rand.NewSource(seed+int64(c)*7919)), ops)
		seq := make([]uint32, streamLen)
		for i, op := range ops {
			seq[i] = uint32(op.Index)
			if !op.Read {
				seq[i] += uint32(w.records)
			}
		}
		st.seq = append(st.seq, seq)
	}
	return st, nil
}

// fill points burst at the next len(burst) requests of client c starting
// at sequence position pos, and returns the position after them.
func (st *stream) fill(burst [][]byte, c, pos int) int {
	seq := st.seq[c]
	for j := range burst {
		burst[j] = st.reqs[seq[pos]]
		if pos++; pos == len(seq) {
			pos = 0
		}
	}
	return pos
}
