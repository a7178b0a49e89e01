package memcache

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"testing"

	"sdrad/internal/mem"
	"sdrad/internal/proc"
)

// getEntry is the reply entry a get of key holding value renders.
func getEntry(key string, value []byte) string {
	return "VALUE " + key + " 0 " + strconv.Itoa(len(value)) + "\r\n" + string(value) + "\r\n"
}

func TestRepliesStayTheCallers(t *testing.T) {
	// Two clients on one worker keep every reply they get, from Do and
	// from DoPipeline, while the worker carves the other client's replies
	// from the same blocks: each reply must still hold its own bytes at
	// the end, with cap == len. The values have odd lengths, so adjacent
	// replies would share a word if they were not aligned, and the race
	// detector would see the client reading its reply while the worker
	// writes the next one.
	allVariants(t, func(t *testing.T, v Variant) {
		s := startServer(t, v, 1)
		const clients, keys, rounds = 2, 8, 12
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
		var wg sync.WaitGroup
		for g := 0; g < clients; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := s.NewConn()
				type kept struct {
					key  string
					resp []byte
				}
				var all []kept
				check := func(k kept) bool {
					if string(k.resp) != want[k.key] || cap(k.resp) != len(k.resp) {
						t.Errorf("reply to get %s: %d bytes, cap %d, want %d bytes, cap == len",
							k.key, len(k.resp), cap(k.resp), len(want[k.key]))
						return false
					}
					return true
				}
				for r := 0; r < rounds; r++ {
					for k := 0; k < keys; k++ {
						key := fmt.Sprintf("c%d-k%d", g, k)
						resp, closed, err := c.Do(FormatGet(key))
						if err != nil || closed {
							t.Errorf("Do: closed=%v err=%v", closed, err)
							return
						}
						all = append(all, kept{key, resp})
						if !check(all[len(all)-1]) {
							return
						}
					}
					reqs := make([][]byte, keys)
					for k := range reqs {
						reqs[k] = FormatGet(fmt.Sprintf("c%d-k%d", g, keys-1-k))
					}
					for k, res := range c.DoPipeline(reqs) {
						if res.Err != nil || res.Closed {
							t.Errorf("DoPipeline: %+v", res)
							return
						}
						all = append(all, kept{fmt.Sprintf("c%d-k%d", g, keys-1-k), res.Resp})
						if !check(all[len(all)-1]) {
							return
						}
					}
				}
				total := 0
				for _, k := range all {
					if !check(k) {
						return
					}
					total += len(k.resp)
				}
				if total < 3*32<<10 {
					t.Errorf("client %d kept %d bytes of replies; the test no longer spans three blocks", g, total)
				}
			}()
		}
		wg.Wait()
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
				replies = append(replies, resp)
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
