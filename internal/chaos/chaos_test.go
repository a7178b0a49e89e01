package chaos

import (
	"strings"
	"testing"
)

// TestChaosSmoke runs every campaign with a fixed seed and verifies the
// acceptance contract: the required fault classes were exercised, every
// injected fault was absorbed, every audit passed, and a second run with
// the same seed reproduces the identical fault schedule. A sweep's
// schedule depends on neither the seed nor the op count, so its one run is
// held to its pin instead of to a second run. Each sweep runs on a
// goroutine of its own beside the campaigns: every one builds its own
// servers, and under -race the sweeps take most of the round.
func TestChaosSmoke(t *testing.T) {
	const seed = 0xC0FFEE
	ops := 24
	if testing.Short() {
		ops = 12
	}
	cfg := Config{Seed: seed, Ops: ops}
	var names, sweeps []string
	for _, c := range Campaigns() {
		if strings.HasPrefix(c.Name, "sweep-") {
			sweeps = append(sweeps, c.Name)
		} else {
			names = append(names, c.Name)
		}
	}
	swept := make(chan *Report, len(sweeps))
	for _, name := range sweeps {
		go func() {
			r, _ := Run(name, cfg) // a registered name: no error
			swept <- r
		}()
	}
	reports, err := RunSelected(names, cfg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := RunSelected(names, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range again {
		first := reports[i]
		if r.ScheduleHash() != first.ScheduleHash() {
			t.Errorf("campaign %s: schedule hash %016x != %016x on rerun",
				r.Campaign, r.ScheduleHash(), first.ScheduleHash())
			for j := range r.Schedule {
				if j < len(first.Schedule) && r.Schedule[j] != first.Schedule[j] {
					t.Errorf("first divergence at line %d:\n  run1: %s\n  run2: %s",
						j, first.Schedule[j], r.Schedule[j])
					break
				}
			}
		}
	}
	for range sweeps {
		r := <-swept
		if got, want := r.ScheduleHash(), pinned[r.Campaign]; got != want {
			t.Errorf("sweep %s: schedule %016x, pinned %016x", r.Campaign, got, want)
		}
		reports = append(reports, r)
	}

	byName := map[string]*Report{}
	for _, r := range reports {
		byName[r.Campaign] = r
		t.Log(r.Summary())
		if !r.Ok() {
			t.Errorf("campaign %s failed:\n  %s", r.Campaign, strings.Join(r.Failures, "\n  "))
		}
		if r.Audits == 0 {
			t.Errorf("campaign %s ran no invariant audits", r.Campaign)
		}
		if r.Injected != r.Absorbed {
			t.Errorf("campaign %s: injected %d, absorbed %d", r.Campaign, r.Injected, r.Absorbed)
		}
	}
	// Every fault point of both servers' mixes, and the cluster's attack,
	// must have injected and absorbed at least one fault.
	for _, name := range []string{"sweep-memcache", "sweep-httpd", "cluster"} {
		r := byName[name]
		if r == nil {
			t.Fatalf("campaign %s did not run", name)
		}
		if r.Injected == 0 {
			t.Errorf("campaign %s injected no faults with seed %d", name, seed)
		}
	}
}

// pinned is every campaign's schedule hash at seed 12648430, 16 ops. A
// sweep's schedule has one line per fault point — the event, k and the
// outcome — so its pin moves when a request gains or loses a fault point,
// and it is the same at every seed.
var pinned = map[string]uint64{
	"sweep-memcache": 0x241321e43b59f0ee,
	"sweep-httpd":    0xdde662ba2faa9427,
	"cluster":        0x1c2a7815d5f4f134,
}

// TestScheduleHashesPinned holds every campaign's schedule to its pin: a
// change that moves a random draw or a schedule line fails here. Move a
// pin only with a change that means to move that schedule, and say why in
// its description.
func TestScheduleHashesPinned(t *testing.T) {
	reports, err := RunSelected(nil, Config{Seed: 12648430, Ops: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(pinned) {
		t.Errorf("%d campaigns ran, %d pinned", len(reports), len(pinned))
	}
	for _, r := range reports {
		if !r.Ok() {
			t.Errorf("campaign %s failed:\n  %s", r.Campaign, strings.Join(r.Failures, "\n  "))
		}
		if got, want := r.ScheduleHash(), pinned[r.Campaign]; got != want {
			t.Errorf("campaign %s: schedule %016x, pinned %016x", r.Campaign, got, want)
		}
	}
}

// TestRunSingleCampaign runs one campaign by name.
func TestRunSingleCampaign(t *testing.T) {
	r, err := Run("cluster", Config{Seed: 7, Ops: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Ok() {
		t.Fatalf("cluster campaign failed: %v", r.Failures)
	}
	if r.Campaign != "cluster" || r.Seed != 7 || r.Ops != 8 {
		t.Errorf("report header mismatch: %+v", r)
	}
}

// TestRunUnknownCampaign verifies name validation.
func TestRunUnknownCampaign(t *testing.T) {
	if _, err := Run("nope", Config{}); err == nil {
		t.Error("unknown campaign accepted")
	}
	if _, err := RunSelected([]string{"cluster", "nope"}, Config{}); err == nil {
		t.Error("unknown campaign in selection accepted")
	}
}

// TestSelectionOrder verifies selected campaigns run in registry order
// regardless of the order given, keeping schedules comparable.
func TestSelectionOrder(t *testing.T) {
	reports, err := RunSelected([]string{"cluster", "sweep-httpd"}, Config{Seed: 3, Ops: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 || reports[0].Campaign != "sweep-httpd" || reports[1].Campaign != "cluster" {
		got := []string{}
		for _, r := range reports {
			got = append(got, r.Campaign)
		}
		t.Errorf("selection order = %v, want [sweep-httpd cluster]", got)
	}
}

// TestDifferentSeedsDiverge is a sanity check that the schedule hash
// actually depends on the seed.
func TestDifferentSeedsDiverge(t *testing.T) {
	a, err := Run("cluster", Config{Seed: 1, Ops: 12})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run("cluster", Config{Seed: 2, Ops: 12})
	if err != nil {
		t.Fatal(err)
	}
	if a.ScheduleHash() == b.ScheduleHash() {
		t.Error("different seeds produced identical schedules")
	}
}
