package core

import (
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
