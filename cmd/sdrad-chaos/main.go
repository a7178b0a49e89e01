// Command sdrad-chaos runs deterministic fault-injection campaigns
// against the SDRaD simulation and audits the monitor's invariants after
// every absorbed rewind.
//
// Usage:
//
//	sdrad-chaos                       # one round of every campaign, random seed
//	sdrad-chaos -seed 12648430        # reproduce a specific run
//	sdrad-chaos -campaigns pku,httpd  # selected campaigns only
//	sdrad-chaos -budget 5m            # keep running fresh rounds for 5 minutes
//	sdrad-chaos -list                 # list campaign names
//
// Every run prints the seed it used; rerunning with that seed reproduces
// the identical fault schedule (compare the schedule hashes).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"sdrad/internal/chaos"
	"sdrad/internal/policy"
	"sdrad/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sdrad-chaos:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sdrad-chaos", flag.ContinueOnError)
	seed := fs.Int64("seed", 0, "campaign seed (0 picks one from the clock)")
	ops := fs.Int("ops", 0, "operations per campaign (0 = default)")
	names := fs.String("campaigns", "", "comma-separated campaign names (empty = all)")
	list := fs.Bool("list", false, "list campaign names and exit")
	budget := fs.Duration("budget", 0, "keep running rounds with fresh seeds until the budget elapses")
	verbose := fs.Bool("v", false, "print every schedule line")
	telAddr := fs.String("telemetry-addr", "", "serve /metrics and /flightrecorder on this address while campaigns run")
	flightDump := fs.String("flight-dump", "", "write the final telemetry dump (metrics, flight record, forensics) as JSON to this path")
	policyDump := fs.String("policy-dump", "", "write the policy campaign's per-phase engine snapshots as JSON to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, c := range chaos.Campaigns() {
			fmt.Fprintf(out, "%-10s %s\n", c.Name, c.Desc)
		}
		return nil
	}
	var selected []string
	if *names != "" {
		selected = strings.Split(*names, ",")
	}
	if *seed == 0 {
		*seed = time.Now().UnixNano() & 0x7fffffff
	}

	// One recorder spans every round, so the dump holds the whole run's
	// flight record and forensics reports. The campaigns' per-operation
	// forensics assertions work off counter deltas and are unaffected by
	// the shared history. A larger flight ring keeps more of the tail.
	var rec *telemetry.Recorder
	if *telAddr != "" || *flightDump != "" {
		rec = telemetry.New(telemetry.Options{FlightEvents: 65536, ForensicsRetain: 256})
		if *telAddr != "" {
			bound, err := rec.Serve(*telAddr)
			if err != nil {
				return fmt.Errorf("telemetry: %w", err)
			}
			fmt.Fprintf(out, "telemetry on http://%s/ (/metrics, /flightrecorder, /forensics)\n", bound)
		}
	}

	// Per-phase engine snapshots from the policy campaign; later rounds
	// overwrite earlier ones so the dump reflects the final round.
	var policyState map[string][]policy.DomainSnapshot
	if *policyDump != "" {
		policyState = make(map[string][]policy.DomainSnapshot)
	}

	deadline := time.Now().Add(*budget)
	failed := 0
	for round := 0; ; round++ {
		roundSeed := *seed + int64(round)
		cfg := chaos.Config{Seed: roundSeed, Ops: *ops, Telemetry: rec}
		if policyState != nil {
			cfg.PolicySink = func(phase string, snaps []policy.DomainSnapshot) {
				policyState[phase] = snaps
			}
		}
		if *verbose {
			cfg.Logf = func(format string, a ...any) { fmt.Fprintf(out, format+"\n", a...) }
		}
		reports, err := chaos.RunSelected(selected, cfg)
		if err != nil {
			return err
		}
		for _, r := range reports {
			fmt.Fprintln(out, r.Summary())
			if !r.Ok() {
				failed++
				for _, f := range r.Failures {
					fmt.Fprintf(out, "  FAIL: %s\n", f)
				}
				fmt.Fprintf(out, "  reproduce with: sdrad-chaos -seed %d -campaigns %s\n", roundSeed, r.Campaign)
			}
		}
		if *budget <= 0 || !time.Now().Before(deadline) {
			break
		}
	}
	if *flightDump != "" {
		data, err := rec.DumpJSON()
		if err != nil {
			return fmt.Errorf("flight dump: %w", err)
		}
		if err := os.WriteFile(*flightDump, data, 0o644); err != nil {
			return fmt.Errorf("flight dump: %w", err)
		}
		fmt.Fprintf(out, "telemetry dump written to %s (%d flight events, %d forensics reports)\n",
			*flightDump, rec.Flight().Written(), rec.Forensics().Added())
	}
	if *policyDump != "" {
		data, err := json.MarshalIndent(policyState, "", "  ")
		if err != nil {
			return fmt.Errorf("policy dump: %w", err)
		}
		if err := os.WriteFile(*policyDump, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("policy dump: %w", err)
		}
		fmt.Fprintf(out, "policy state written to %s (%d phases)\n", *policyDump, len(policyState))
	}
	if failed > 0 {
		return fmt.Errorf("%d campaign(s) failed", failed)
	}
	return nil
}
