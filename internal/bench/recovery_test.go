package bench

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunRecovery(t *testing.T) {
	rep, tbl, err := RunRecovery(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RewindWallNs <= 0 || rep.RestartWallNs <= 0 {
		t.Errorf("wall costs = %v/%v, want > 0", rep.RewindWallNs, rep.RestartWallNs)
	}
	// The resilience claim itself: rewinding a domain must be much
	// cheaper than restarting the process and reloading the dataset —
	// even at tiny scale the gap is well past the floor.
	if err := rep.Check(); err != nil {
		t.Error(err)
	}
	var buf bytes.Buffer
	tbl.Fprint(&buf)
	for _, want := range []string{"Recovery", "rewind", "restart", "wall/recovery"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}
