package core

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"sdrad/internal/cacheline"
	"sdrad/internal/proc"
)

// threadWrites is what one thread's guard scope writes on the monitor's
// side: its transition-ledger slot (count and owner, at their host
// address through the slot lease's window), its execution domain's stack
// record, the domain's record and the thread's control data.
type threadWrites struct {
	ledger, stack, domain, thread cacheline.Span
}

// scopeWrites runs one guard scope on th and reports what it wrote.
func scopeWrites(l *Library, th *proc.Thread) (threadWrites, error) {
	if err := guardScope(l, th); err != nil {
		return threadWrites{}, err
	}
	ts := l.state(th)
	l.monitorEnter(th) // the slot's window is open only under monitor rights
	b, ok := ts.ledger.Window()
	l.monitorExit(th)
	if !ok {
		return threadWrites{}, fmt.Errorf("thread %d: ledger window refused", th.ID())
	}
	stk, err := l.Stack(th, 1)
	if err != nil {
		return threadWrites{}, err
	}
	return threadWrites{
		ledger: cacheline.Of(uintptr(unsafe.Pointer(unsafe.SliceData(b))), 16),
		stack:  cacheline.Fields(stk),
		domain: cacheline.Fields(ts.domains[1]),
		thread: cacheline.Fields(ts),
	}, nil
}

// Live threads that each ran a guard scope write their ledger slots,
// their execution domains' stack and domain records and their control
// data on disjoint cache lines (DESIGN §9), so two workers on two CPUs
// never hand a line back and forth inside the bracket. Four threads take
// ledger slots 1–4; 16-byte slots would put 1–3 on one line.
func TestThreadsWriteNoSharedLine(t *testing.T) {
	p, l := newLib(t)
	const threads = 4
	var got [threads]threadWrites
	for i := range got {
		do, stop := sibling(t, p, fmt.Sprintf("w%d", i))
		defer stop()
		if err := do(func(th *proc.Thread) (err error) {
			got[i], err = scopeWrites(l, th)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := range got {
		for j := i + 1; j < threads; j++ {
			a, b := got[i], got[j]
			for _, c := range []struct {
				what string
				a, b cacheline.Span
			}{
				{"ledger slots", a.ledger, b.ledger},
				{"stack records", a.stack, b.stack},
				{"domain records", a.domain, b.domain},
				{"thread records", a.thread, b.thread},
			} {
				if c.a.Shares(c.b) {
					t.Errorf("threads %d and %d write %s on one line: lines %#x-%#x and %#x-%#x",
						i, j, c.what, c.a.First, c.a.Last, c.b.First, c.b.Last)
				}
			}
		}
	}
}

// More live threads than exclusive ledger slots: the overflow threads
// share slot 0 under the library mutex, and after every thread has made
// monitor calls at once (root-heap Malloc and Free: sixteen protection
// keys cannot give each thread a domain), the audit's sum over the slots
// equals the monitor call count on each thread, shared slot or not, with
// no finding.
func TestLedgerSharedSlotKeepsTheAuditSum(t *testing.T) {
	p, l := newLib(t)
	const threads = ledgerSlots + 3
	dos := make([]func(func(*proc.Thread) error) error, threads)
	for i := range dos {
		var stop func()
		dos[i], stop = sibling(t, p, fmt.Sprintf("w%d", i))
		defer stop()
	}
	var wg sync.WaitGroup
	for _, do := range dos {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 8 {
				if err := do(func(th *proc.Thread) error {
					ptr, err := l.Malloc(th, RootUDI, 64)
					if err != nil {
						return err
					}
					return l.Free(th, RootUDI, ptr)
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	shared := 0
	for i, do := range dos {
		if err := do(func(th *proc.Thread) error {
			if l.state(th).ledgerShared {
				shared++
			}
			rep := l.Audit(th)
			if !rep.Ok() || rep.LedgerCalls != uint64(rep.MonitorCalls) {
				t.Errorf("thread %d: ledger=%d stats=%d findings=%v", i, rep.LedgerCalls, rep.MonitorCalls, rep.Findings)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if want := threads - (ledgerSlots - 1); shared != want {
		t.Errorf("%d threads on the shared slot, want %d", shared, want)
	}
}
