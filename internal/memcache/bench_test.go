package memcache

import (
	"bytes"
	"fmt"
	"testing"
)

// BenchmarkDeferredSetApply times the hardened store path on its own,
// without the ledger: one 1 KiB set per guard scope, parsed inside the
// event domain, queued by reference and applied after Exit. allocs/op is
// the figure to watch — the deferred op itself contributes none.
func BenchmarkDeferredSetApply(b *testing.B) {
	s := startServer(b, VariantSDRaD, 1)
	value := bytes.Repeat([]byte("v"), 1024)
	reqs := make([][]byte, 64)
	for i := range reqs {
		reqs[i] = FormatSet(fmt.Sprintf("key-%02d", i), value, 0)
	}
	if err := s.RunInline("bench", func(newConn func() *Conn, do InlineDo) error {
		conn := newConn()
		for _, req := range reqs { // create the domain, warm the slabs
			if _, _, err := do(conn, req); err != nil {
				return err
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := do(conn, reqs[i%len(reqs)]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
}
