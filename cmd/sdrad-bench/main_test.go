package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestListFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	want := "fig4 rewind-memcached mem-memcached fig5 scaling-nginx rewind-nginx mem-nginx " +
		"openssl rewind-openssl switchcost ablations recovery cluster telemetry"
	if got := strings.Join(strings.Fields(out.String()), " "); got != want {
		t.Errorf("-list printed\n  %s\nwant\n  %s", got, want)
	}
}

func TestUnknownFlag(t *testing.T) {
	for _, args := range [][]string{
		{"-definitely-not-a-flag"},
		// Retired with the committed-baseline harness: must not linger as
		// an accepted no-op.
		{"-parity-baseline", "x"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

func TestQuickSingleExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments")
	}
	// -recovery states a claim: exit 0 means the run held it.
	for _, name := range []string{"-rewind-openssl", "-recovery"} {
		if err := run([]string{"-quick", name}, io.Discard); err != nil {
			t.Errorf("-quick %s: %v", name, err)
		}
	}
}
