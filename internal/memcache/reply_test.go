package memcache

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"weak"

	"sdrad/internal/mem"
	"sdrad/internal/proc"
)

// getEntry is the reply entry a get of key holding value renders.
func getEntry(key string, value []byte) string {
	return "VALUE " + key + " 0 " + strconv.Itoa(len(value)) + "\r\n" + string(value) + "\r\n"
}

func TestRepliesLastUntilTheNextCall(t *testing.T) {
	// A reply lives in its connection's reply block until that
	// connection's next call. Two clients on one worker take turns: one
	// makes a call — a Do, a DoPipeline of one event, or a pipeline of
	// three events (one call) whose replies outgrow the block — while the
	// other reads the replies of its own last call before, during and after
	// that turn. Every reply must keep its exact bytes, with cap == len,
	// until its connection's next call. The values have odd lengths, so
	// adjacent replies would share a word if they were not aligned, and the
	// race detector would see a client reading its replies while the worker
	// writes into the same block. A reply held across Stop keeps its bytes
	// and leaves the stopped server collectable.
	allVariants(t, func(t *testing.T, v Variant) {
		s := startServer(t, v, 1)
		const clients, keys, rounds = 2, 9, 6
		want := make(map[string]string)
		setup := s.NewConn()
		for g := 0; g < clients; g++ {
			for k := 0; k < keys; k++ {
				key := fmt.Sprintf("c%d-k%d", g, k)
				value := bytes.Repeat([]byte{byte('a' + g*keys + k)}, 701+13*k)
				mustDo(t, setup, FormatSet(key, value, 0))
				want[key] = getEntry(key, value) + "END\r\n"
			}
		}
		type kept struct {
			key  string
			resp []byte
		}
		turn := [clients]chan struct{}{make(chan struct{}, 1), make(chan struct{}, 1)}
		turn[0] <- struct{}{}
		var wg sync.WaitGroup
		for g := 0; g < clients; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := s.NewConn()
				call := func(ks []string) []kept {
					held := make([]kept, 0, len(ks))
					if len(ks) == 1 {
						resp, closed, err := c.Do(FormatGet(ks[0]))
						if err != nil || closed {
							t.Errorf("Do: closed=%v err=%v", closed, err)
							return nil
						}
						return append(held, kept{ks[0], resp})
					}
					reqs := make([][]byte, len(ks))
					for i, key := range ks {
						reqs[i] = FormatGet(key)
					}
					for i, res := range c.DoPipeline(reqs) {
						if res.Err != nil || res.Closed {
							t.Errorf("DoPipeline: %+v", res)
							return nil
						}
						held = append(held, kept{ks[i], res.Resp})
					}
					return held
				}
				ok := true
				check := func(when string, held []kept) {
					for _, k := range held {
						if ok && (string(k.resp) != want[k.key] || cap(k.resp) != len(k.resp)) {
							t.Errorf("reply to get %s %s: %d bytes, cap %d, want %d bytes, cap == len",
								k.key, when, len(k.resp), cap(k.resp), len(want[k.key]))
							ok = false
						}
					}
				}
				key := func(k int) string { return fmt.Sprintf("c%d-k%d", g, k%keys) }
				var held []kept
				for r := 0; r < rounds; r++ {
					short, long := make([]string, keys), make([]string, 3*s.MaxBatch())
					for i := range short {
						short[i] = key(keys - 1 - i)
					}
					for i := range long {
						long[i] = key(r + i)
					}
					for _, ks := range [][]string{{key(r)}, short, long} {
						<-turn[g]
						check("after the other client's call", held)
						held = call(ks)
						check("as delivered", held)
						turn[1-g] <- struct{}{}
						check("while the other client is served", held)
					}
					total := 0
					for _, k := range held {
						total += len(k.resp)
					}
					if total <= 32<<10 {
						t.Errorf("a pipeline of %d gets replied %d bytes; the test no longer outgrows a connection's block", len(long), total)
					}
				}
			}()
		}
		wg.Wait()

		value := bytes.Repeat([]byte("v"), 1021)
		held, server := func() ([]byte, weak.Pointer[Server]) {
			s, err := NewServer(Config{Variant: v, HashPower: 10, CacheBytes: 4 << 20})
			if err != nil {
				t.Fatal(err)
			}
			c := s.NewConn()
			mustDo(t, c, FormatSet("k", value, 0))
			resp := mustDo(t, c, FormatGet("k"))
			s.Stop()
			return resp, weak.Make(s)
		}()
		runtime.GC()
		if server.Value() != nil {
			t.Error("a reply held across Stop keeps the stopped server reachable")
		}
		if want := getEntry("k", value) + "END\r\n"; string(held) != want {
			t.Errorf("a reply held across Stop reads %q, want %q", held[:min(len(held), 24)], want[:24])
		}
	})
}

func TestOverlayGetsAreCounted(t *testing.T) {
	// A get answered by a store or delete queued earlier in the same batch
	// is a get like any other: every build counts it in cmd_get, and a hit
	// in get_hits.
	allVariants(t, func(t *testing.T, v Variant) {
		s := startServer(t, v, 1)
		c := s.NewConn()
		res := c.DoPipeline([][]byte{
			FormatSet("k", []byte("v"), 0), FormatGet("k"),
			[]byte("delete k\r\n"), FormatGet("k"),
			[]byte("set b 0 0 1\r\nw\r\n"), []byte("gets b\r\n"),
		})
		if got := string(res[1].Resp); got != getEntry("k", []byte("v"))+"END\r\n" {
			t.Errorf("get after the queued set = %q", got)
		}
		if got := string(res[3].Resp); got != "END\r\n" {
			t.Errorf("get after the queued delete = %q", got)
		}
		if st := s.StorageStats(); st.Gets != 3 || st.Hits != 2 {
			t.Errorf("cmd_get %d, get_hits %d, want 3 and 2", st.Gets, st.Hits)
		}
	})
}

func TestGetReplyLongerThanTheWriteBuffer(t *testing.T) {
	// A multi-get whose reply outgrows the write buffer is cut at
	// ConnBufSize — mid-entry, as the bytes fall — and every key it names
	// is still looked up and counted once, hit or miss.
	allVariants(t, func(t *testing.T, v Variant) {
		s, err := NewServer(Config{Variant: v, HashPower: 10, CacheBytes: 4 << 20, ConnBufSize: 4096})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Stop)
		c := s.NewConn()
		req, full := "get", ""
		for k := 0; k < 8; k++ {
			key := fmt.Sprintf("key-%d", k)
			value := bytes.Repeat([]byte{byte('0' + k)}, 999)
			mustDo(t, c, FormatSet(key, value, 0))
			req += " " + key
			full += getEntry(key, value)
			if k == 3 {
				req += " missing"
			}
		}
		full += "END\r\n"
		before := s.StorageStats()
		if got := mustDo(t, c, []byte(req+"\r\n")); string(got) != full[:4096] {
			t.Errorf("reply: %d bytes ending %q, want the %d-byte reply cut at 4096, ending %q",
				len(got), got[max(0, len(got)-16):], len(full), full[4080:4096])
		}
		after := s.StorageStats()
		if gets, hits := after.Gets-before.Gets, after.Hits-before.Hits; gets != 9 || hits != 8 {
			t.Errorf("one multi-get of 9 keys counted %d gets and %d hits, want 9 and 8", gets, hits)
		}
	})
}

func TestGetRepliesThroughTheCheckedPath(t *testing.T) {
	// An armed injector refuses every lease, so the get renders into the
	// worker's scratch, writes the reply through the checked writer and
	// delivers it through the checked reader. Every reply must be the one
	// the leased path gives, byte for byte, counted the same.
	allVariants(t, func(t *testing.T, v Variant) {
		s, err := NewServer(Config{Variant: v, HashPower: 10, CacheBytes: 4 << 20, ConnBufSize: 4096})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Stop)
		c := s.NewConn()
		long := "get"
		for k := 0; k < 6; k++ {
			key := fmt.Sprintf("key-%d", k)
			mustDo(t, c, FormatSet(key, bytes.Repeat([]byte{byte('a' + k)}, 900+k), uint32(k)))
			long += " " + key
		}
		reqs := [][]byte{
			FormatGet("key-1"), FormatGet("missing"), []byte("gets key-2 key-3\r\n"),
			[]byte("get key-0 missing key-4\r\n"), []byte(long + "\r\n"), []byte("get key-5 noreply\r\n"),
		}
		serve := func() (replies [][]byte, st StorageStats) {
			before := s.StorageStats()
			for _, req := range reqs {
				resp, closed, err := c.Do(req)
				if err != nil || closed {
					t.Fatalf("%q: closed=%v err=%v", req, closed, err)
				}
				replies = append(replies, bytes.Clone(resp)) // resp is the conn's until the next Do
			}
			after := s.StorageStats()
			return replies, StorageStats{Gets: after.Gets - before.Gets, Hits: after.Hits - before.Hits}
		}
		leased, leasedStats := serve()
		accesses := 0 // touched on the worker thread only
		if err := c.Inspect(func(th *proc.Thread) error {
			th.CPU().SetFaultInjector(func(mem.Addr, mem.AccessKind) *mem.Fault {
				accesses++
				return nil
			})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		checked, checkedStats := serve()
		if err := c.Inspect(func(th *proc.Thread) error {
			th.CPU().SetFaultInjector(nil)
			if accesses == 0 {
				return fmt.Errorf("no access took the checked path")
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range reqs {
			if !bytes.Equal(leased[i], checked[i]) {
				t.Errorf("%q: checked reply %q, leased %q", reqs[i][:min(len(reqs[i]), 24)],
					checked[i][:min(len(checked[i]), 40)], leased[i][:min(len(leased[i]), 40)])
			}
		}
		if len(leased[4]) != 4096 || leased[5] != nil {
			t.Errorf("long multi-get %d bytes, want cut at 4096; noreply get %q, want nothing", len(leased[4]), leased[5])
		}
		if leasedStats != checkedStats {
			t.Errorf("counted %+v on the checked path, %+v on the leased one", checkedStats, leasedStats)
		}
	})
}

// heldRequests counts the requests the events and the batch-of-one
// storage of c's call record still reference (proc.Call keeps them
// unexported; reflect reads them).
func heldRequests(c *Conn) int {
	call := reflect.ValueOf(&c.call).Elem()
	n := call.FieldByName("req1").Index(0).Len()
	for _, name := range []string{"one", "evs"} {
		evs := call.FieldByName(name)
		for i := 0; i < evs.Len(); i++ {
			n += evs.Index(i).FieldByName("Reqs").Len()
		}
	}
	return n
}

func TestConnEventAcrossDoPipelineAndStop(t *testing.T) {
	// Every call of a Conn runs on the one record the Conn carries. Two
	// clients, one per worker, alternate Do and a DoPipeline of two events
	// on their own connections and go on calling across Stop: every reply
	// is the one its request asked for until the first down error, and
	// from then on every call reports ErrServerDown on the same record,
	// which each call leaves referencing no request. Once the clients let
	// go of their connections, the stopped server is collected.
	allVariants(t, func(t *testing.T, v Variant) {
		server := func() weak.Pointer[Server] {
			s, err := NewServer(Config{Variant: v, Workers: 2, HashPower: 10, CacheBytes: 4 << 20})
			if err != nil {
				t.Fatal(err)
			}
			warm := make(chan struct{}, 2)
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					c := connOn(s, i)
					key := fmt.Sprintf("key-%d", i)
					gets := make([][]byte, s.MaxBatch()+1)
					for j := range gets {
						gets[j] = FormatGet(key)
					}
					down := func(what string, resp []byte, closed bool, err error) bool {
						if err == nil {
							return false
						}
						if !errors.Is(err, ErrServerDown) || !closed || resp != nil {
							t.Errorf("%s: resp %q closed=%v err=%v, want the down error", what, resp, closed, err)
						}
						return true
					}
					for n := 0; ; n++ {
						if n == 50 {
							warm <- struct{}{}
						}
						val := []byte(strconv.Itoa(n))
						resp, closed, err := c.Do(FormatSet(key, val, 0))
						if down("set", resp, closed, err) {
							break
						}
						if string(resp) != "STORED\r\n" || closed {
							t.Errorf("set %d: %q closed=%v", n, resp, closed)
							return
						}
						want := getEntry(key, val) + "END\r\n"
						resp, closed, err = c.Do(FormatGet(key))
						if down("get", resp, closed, err) {
							break
						}
						if string(resp) != want || closed {
							t.Errorf("get %d: %q closed=%v, want %q", n, resp, closed, want)
							return
						}
						res := c.DoPipeline(gets)
						if res[len(res)-1].Err != nil {
							break // the process went down during the call
						}
						for _, r := range res {
							if string(r.Resp) != want || r.Closed {
								t.Errorf("pipelined get %d: %q closed=%v, want %q", n, r.Resp, r.Closed, want)
								return
							}
						}
					}
					for n := 0; n < 3; n++ {
						resp, closed, err := c.Do(FormatGet(key))
						if !down("get after Stop", resp, closed, err) {
							t.Errorf("get after Stop answered %q", resp)
						}
						if held := heldRequests(c); held != 0 {
							t.Errorf("after a Do the connection's record still holds %d requests", held)
						}
						for _, r := range c.DoPipeline(gets) {
							down("pipelined get after Stop", r.Resp, r.Closed, r.Err)
						}
						if held := heldRequests(c); held != 0 {
							t.Errorf("after a DoPipeline the connection's record still holds %d requests", held)
						}
					}
				}()
			}
			<-warm
			<-warm
			s.Stop()
			wg.Wait()
			return weak.Make(s)
		}()
		runtime.GC()
		if server.Value() != nil {
			t.Error("the stopped server is still reachable once its clients dropped their connections")
		}
	})
}
