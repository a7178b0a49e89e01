package core

import (
	"sync"
	"testing"

	"sdrad/internal/proc"
)

// guardScope is one guard scope around one Enter/Exit round — what the
// hardened servers pay per client event (memcache) or per request (httpd).
func guardScope(l *Library, th *proc.Thread) error {
	return l.Guard(th, 1, func() error {
		if err := l.Enter(th, 1); err != nil {
			return err
		}
		return l.Exit(th)
	}, Accessible())
}

// BenchmarkGuardScope times the scope on its own, without the ledger:
// three monitor calls, one return-record push and verify, six PKRU writes.
func BenchmarkGuardScope(b *testing.B) {
	p, l := newLib(b)
	if err := p.Attach("main", func(th *proc.Thread) error {
		if err := guardScope(l, th); err != nil { // creates the domain
			return err
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := guardScope(l, th); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkGuardScopePair times the scope on two threads at once, each
// with its own domain, as two workers on two CPUs run it; ns/op is per
// scope on one thread. While the two write no common cache line
// (DESIGN §9) it approaches BenchmarkGuardScope's.
func BenchmarkGuardScopePair(b *testing.B) {
	p, l := newLib(b)
	var ready sync.WaitGroup
	start := make(chan struct{})
	scopes := func(th *proc.Thread) error {
		err := guardScope(l, th) // creates the thread's domain
		ready.Done()
		<-start
		for i := 0; err == nil && i < b.N; i++ {
			err = guardScope(l, th)
		}
		return err
	}
	ready.Add(2)
	h1, h2 := p.Spawn("w1", scopes), p.Spawn("w2", scopes)
	ready.Wait()
	b.ReportAllocs()
	b.ResetTimer()
	close(start)
	err1, err2 := h1.Join(), h2.Join()
	b.StopTimer()
	if err1 != nil || err2 != nil {
		b.Fatal(err1, err2)
	}
}
