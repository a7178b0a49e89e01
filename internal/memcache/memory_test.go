package memcache

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"sdrad/internal/core"
	"sdrad/internal/mem"
	"sdrad/internal/proc"
)

// TestServesTheConnectionsItIsSizedFor: the hardened root heap grows on
// demand, one connection's buffers at a time, and still holds the 256
// live connections rootHeap is sized for. It stops at its ceiling, never
// past it: the connection that finds it full is refused as heap
// exhaustion, the server keeps serving the others, and the audit of the
// grown heap is clean.
func TestServesTheConnectionsItIsSizedFor(t *testing.T) {
	cfg := Config{Variant: VariantSDRaD, Workers: 1, HashPower: 10, CacheBytes: 4 << 20}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	cfg.setDefaults()
	before := s.MappedBytes()
	var conns []*Conn
	for {
		c := s.NewConn()
		resp, closed, err := c.Do(FormatGet("k"))
		if err != nil {
			if !errors.Is(err, core.ErrHeapExhausted) {
				t.Fatalf("connection %d: %v, want heap exhaustion", len(conns), err)
			}
			break
		}
		if closed || string(resp) != "END\r\n" {
			t.Fatalf("connection %d: %q closed=%v", len(conns), resp, closed)
		}
		conns = append(conns, c)
		if len(conns) > 4096 {
			t.Fatal("the root heap never filled")
		}
	}
	t.Logf("a hardened server serves %d live connections", len(conns))
	if len(conns) < 256 {
		t.Errorf("%d live connections served, want at least 256", len(conns))
	}
	// Besides root's regions the server mapped only its event domain.
	root := uint64(s.MappedBytes()-before) - core.DefaultStackSize - domainHeapSize(cfg)
	if ceiling := rootHeap(cfg); root > ceiling || ceiling-root >= uint64(cfg.ConnBufSize)+1024 {
		t.Errorf("the root heap maps %d bytes, want at most its %d-byte ceiling and within one buffer of it", root, ceiling)
	}
	for i, c := range []*Conn{conns[0], conns[len(conns)-1]} {
		if resp := mustDo(t, c, FormatSet("k", []byte("v"), 0)); string(resp) != "STORED\r\n" {
			t.Errorf("live connection %d after the refusal: %q", i, resp)
		}
	}
	if err := conns[0].Inspect(func(th *proc.Thread) error {
		if rep := s.Library().Audit(th); !rep.Ok() {
			return fmt.Errorf("audit of the grown root heap: %v", rep.Findings)
		}
		return nil
	}); err != nil {
		t.Error(err)
	}
}

// TestRootHeapGrowsFromTwoWorkers: clients on both workers open
// connections at once, so two threads grow the root heap side by side
// (each under root's heap lock). Every connection is served, the heap
// grew by at least the buffers' worth of steps, and each worker's audit
// is clean afterwards.
func TestRootHeapGrowsFromTwoWorkers(t *testing.T) {
	s, err := NewServer(Config{Variant: VariantSDRaD, Workers: 2, HashPower: 10, CacheBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	before := s.MappedBytes()
	const perClient = 40
	var byWorker [2]*Conn
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				c := s.NewConn()
				if resp, closed, err := c.Do(FormatGet("k")); err != nil || closed || string(resp) != "END\r\n" {
					t.Errorf("client %d, connection %d: %q closed=%v err=%v", g, i, resp, closed, err)
					return
				}
				mu.Lock()
				byWorker[c.WorkerIndex()] = c
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	// Two 16 KiB buffers per connection, 15 buffers to a step.
	if grown, want := s.MappedBytes()-before, int64(2*perClient*2/15)*core.HeapStep; grown < want {
		t.Errorf("the root heap grew by %d bytes for %d connections, want at least %d", grown, 2*perClient, want)
	}
	for i, c := range byWorker {
		if err := c.Inspect(func(th *proc.Thread) error {
			if rep := s.Library().Audit(th); !rep.Ok() {
				return fmt.Errorf("worker %d audit: %v", i, rep.Findings)
			}
			return nil
		}); err != nil {
			t.Error(err)
		}
	}
}

// TestLeaseWalksOnlyAfterARevocation counts span-lease verification in
// pages (mem.Stats.LeasePagesWalked). Steady-state gets walk none: every
// lease they use stays valid. The first get after a rewind walks the
// whole cache arena again, since the rewind revokes the worker's leases;
// so does the get of a new connection whose buffers made the root heap
// map a region, since a mapping's shootdown revokes every lease in the
// process.
func TestLeaseWalksOnlyAfterARevocation(t *testing.T) {
	cfg := Config{Variant: VariantSDRaD, Workers: 1, HashPower: 10, CacheBytes: 4 << 20}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	st := s.Process().AddressSpace().Stats()
	arenaPages := int64(cfg.CacheBytes / mem.PageSize)
	c := s.NewConn()
	mustDo(t, c, FormatSet("k", []byte("v"), 0))
	get := FormatGet("k")
	walked := func(what string, n int) int64 {
		t.Helper()
		w := st.LeasePagesWalked.Load()
		for i := 0; i < n; i++ {
			if resp := mustDo(t, c, get); string(resp) != getEntry("k", []byte("v"))+"END\r\n" {
				t.Fatalf("get %s: %q", what, resp)
			}
		}
		return st.LeasePagesWalked.Load() - w
	}
	walked("to warm up", 2)
	if n := walked("in the steady state", 100); n != 0 {
		t.Errorf("100 steady-state gets walked %d pages, want 0", n)
	}

	if _, closed, err := s.NewConn().Do(FormatBSet("atk", 1<<20, nil)); err != nil || !closed {
		t.Fatalf("attack: closed=%v err=%v", closed, err)
	}
	if n := walked("after a rewind", 1); n < arenaPages {
		t.Errorf("the first get after a rewind walked %d pages, want the arena's %d at least", n, arenaPages)
	}
	if n := walked("after the rewind's re-walk", 10); n != 0 {
		t.Errorf("10 gets after the re-walk walked %d pages, want 0", n)
	}

	// New connections until one's buffers need a new root region: its
	// own get, which follows the mapping, re-walks the arena.
	for grown := false; !grown; {
		mapped, w := s.MappedBytes(), st.LeasePagesWalked.Load()
		mustDo(t, s.NewConn(), get)
		n := st.LeasePagesWalked.Load() - w
		if grown = s.MappedBytes() != mapped; grown && n < arenaPages {
			t.Errorf("the get whose connection grew the root heap walked %d pages, want the arena's %d at least", n, arenaPages)
		}
		if !grown && n >= arenaPages {
			t.Errorf("a new connection's get walked %d pages with no mapping before it", n)
		}
	}
	if n := walked("after the growth's re-walk", 10); n != 0 {
		t.Errorf("10 gets after the re-walk walked %d pages, want 0", n)
	}
}

// TestMappedBytesAfterSeededLoad pins what a two-worker server maps on
// each build after a fixed load: 24 connections, opened in turn, each
// storing and reading back 32 values of 512 bytes. The heaps grow on
// demand, so the figures are what the load used, not a reservation: a
// change to them is a change in memory cost, to be explained.
func TestMappedBytesAfterSeededLoad(t *testing.T) {
	want := map[Variant]int64{
		VariantVanilla: 34603008, // 33 MiB: a first step, the 32 MiB cache's region, 2 steps of buffers
		VariantTLSF:    34603008,
		VariantSDRaD:   37163008, // the 33 MiB storage domain, 4 root steps, 2 event domains of 736 KiB, the monitor page
	}
	allVariants(t, func(t *testing.T, v Variant) {
		s, err := NewServer(Config{Variant: v, Workers: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Stop)
		for i := 0; i < 24; i++ {
			c := s.NewConn()
			for k := 0; k < 32; k++ {
				key := fmt.Sprintf("c%d-k%d", i, k)
				val := []byte(fmt.Sprintf("%0512d", i*32+k))
				if resp := mustDo(t, c, FormatSet(key, val, 0)); string(resp) != "STORED\r\n" {
					t.Fatalf("set %s: %q", key, resp)
				}
				if resp := mustDo(t, c, FormatGet(key)); string(resp) != getEntry(key, val)+"END\r\n" {
					t.Fatalf("get %s: %q", key, resp)
				}
			}
		}
		if got := s.MappedBytes(); got != want[v] {
			t.Errorf("%s server maps %d bytes (%.2f MiB) after the load, want %d", v, got, float64(got)/(1<<20), want[v])
		}
	})
}
