package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"sdrad/internal/chaos"
)

func TestListPrintsRegistryOrder(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	want := chaos.Campaigns()
	if len(want) != 3 || len(lines) != len(want) {
		t.Fatalf("-list printed %d lines for %d campaigns, want 3:\n%s", len(lines), len(want), out.String())
	}
	for i, c := range want {
		if name := strings.Fields(lines[i])[0]; name != c.Name {
			t.Errorf("line %d names %q, want %q", i, name, c.Name)
		}
	}
}

func TestUnknownCampaignErrors(t *testing.T) {
	if err := run([]string{"-campaigns", "nope", "-seed", "1"}, io.Discard); err == nil {
		t.Error("-campaigns nope accepted")
	}
}

func TestOneCampaignPrintsOnePassLine(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-campaigns", "cluster", "-seed", "7", "-ops", "4"}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("printed %d lines, want one summary:\n%s", len(lines), out.String())
	}
	if f := strings.Fields(lines[0]); f[0] != "cluster" || f[1] != "seed=7" || f[len(f)-1] != "PASS" {
		t.Errorf("summary %q, want a cluster seed=7 PASS line", lines[0])
	}
}
