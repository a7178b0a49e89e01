// Command sdrad-bench regenerates the paper's evaluation tables and
// figures on the simulated substrate and prints them as text.
//
// Usage:
//
//	sdrad-bench                  # run every experiment at full scale
//	sdrad-bench -quick           # run every experiment at test scale
//	sdrad-bench -fig4 -fig5      # run selected experiments
//	sdrad-bench -list            # list experiment names
//
// See DESIGN.md §5 for the experiment index and EXPERIMENTS.md for the
// paper-vs-measured record.
package main

import (
	"flag"
	"fmt"
	"os"

	"sdrad/internal/bench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sdrad-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sdrad-bench", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "use the reduced test scale")
	list := fs.Bool("list", false, "list experiment names and exit")
	subJSON := fs.String("substrate-json", "", "write the substrate report as JSON to this path")
	subBaseline := fs.String("substrate-baseline", "", "compare the substrate report against this JSON baseline; exit non-zero on >10% micro regression")
	telGuard := fs.Bool("telemetry-guard", false, "exit non-zero when an enabled telemetry recorder costs more than 2% YCSB run-phase throughput")
	tputJSON := fs.String("throughput-json", "", "write the scaling-curve throughput report as JSON to this path")
	tputBaseline := fs.String("throughput-baseline", "", "compare the throughput report against this JSON baseline; exit non-zero on >25% speed-adjusted drop")
	recJSON := fs.String("recovery-json", "", "write the recovery-cost report as JSON to this path")
	recBaseline := fs.String("recovery-baseline", "", "gate the recovery report against this JSON baseline; exit non-zero when rewind is not clearly cheaper than restart or its cost regressed")
	clusterJSON := fs.String("cluster-json", "", "write the routed cluster-scaling report as JSON to this path")
	clusterBaseline := fs.String("cluster-baseline", "", "compare the cluster report against this JSON baseline (speed-adjusted) and assert the baseline's CPU-aware scaling gate")
	clusterGate := fs.String("cluster-gate", "", "assert the committed cluster baseline's CPU-aware scaling and availability floors (deterministic; no benchmark run needed)")
	parity := fs.Bool("parity", false, "measure the sdrad/vanilla parity ratio table with paired back-to-back runs")
	parityJSON := fs.String("parity-json", "", "write the parity report as JSON to this path (implies -parity)")
	parityFloor := fs.Float64("parity-floor", 0, "with -parity, exit non-zero when the live headline-cell ratio falls below this floor")
	parityBaseline := fs.String("parity-baseline", "", "assert the committed throughput baseline's headline cell holds sdrad >= 0.97x vanilla (deterministic; no benchmark run needed)")
	selected := make(map[string]*bool, len(bench.Experiments))
	for _, name := range bench.Experiments {
		selected[name] = fs.Bool(name, false, "run the "+name+" experiment")
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, name := range bench.Experiments {
			fmt.Println(name)
		}
		return nil
	}
	scale := bench.Full
	scaleName := "full"
	if *quick {
		scale = bench.Quick
		scaleName = "quick"
	}
	var toRun []string
	for _, name := range bench.Experiments {
		if *selected[name] {
			toRun = append(toRun, name)
		}
	}
	if (*subJSON != "" || *subBaseline != "" || *telGuard) && !*selected["substrate"] {
		toRun = append(toRun, "substrate")
	}
	if (*tputJSON != "" || *tputBaseline != "") && !*selected["throughput"] {
		toRun = append(toRun, "throughput")
	}
	if (*recJSON != "" || *recBaseline != "") && !*selected["recovery"] {
		toRun = append(toRun, "recovery")
	}
	if (*clusterJSON != "" || *clusterBaseline != "") && !*selected["cluster"] {
		toRun = append(toRun, "cluster")
	}
	parityMode := *parityBaseline != "" || *parity || *parityJSON != ""
	if len(toRun) == 0 && !parityMode && *clusterGate == "" {
		toRun = bench.Experiments
	}
	fmt.Printf("SDRaD-Go evaluation (scale: %s)\n", scaleName)
	fmt.Printf("Reproducing: Gülmez et al., \"Rewind & Discard\", DSN 2023\n\n")
	// Parity flags form their own mode: the deterministic baseline-ratio
	// assertion and/or the live paired-ratio table run instead of the
	// experiment list (combine with experiment flags to run both).
	if *clusterGate != "" {
		if err := checkClusterGate(*clusterGate); err != nil {
			return err
		}
	}
	if parityMode {
		if *parityBaseline != "" {
			if err := checkParityBaseline(*parityBaseline); err != nil {
				return err
			}
		}
		if *parity || *parityJSON != "" {
			if err := runParity(scale, *parityJSON, *parityFloor); err != nil {
				return fmt.Errorf("parity: %w", err)
			}
		}
	}
	for _, name := range toRun {
		if name == "substrate" && (*subJSON != "" || *subBaseline != "" || *telGuard) {
			if err := runSubstrate(scale, *subJSON, *subBaseline, *telGuard); err != nil {
				return fmt.Errorf("substrate: %w", err)
			}
			continue
		}
		if name == "throughput" && (*tputJSON != "" || *tputBaseline != "") {
			if err := runThroughput(scale, *tputJSON, *tputBaseline); err != nil {
				return fmt.Errorf("throughput: %w", err)
			}
			continue
		}
		if name == "recovery" && (*recJSON != "" || *recBaseline != "") {
			if err := runRecovery(scale, *recJSON, *recBaseline); err != nil {
				return fmt.Errorf("recovery: %w", err)
			}
			continue
		}
		if name == "cluster" && (*clusterJSON != "" || *clusterBaseline != "") {
			if err := runCluster(scale, *clusterJSON, *clusterBaseline); err != nil {
				return fmt.Errorf("cluster: %w", err)
			}
			continue
		}
		if err := bench.Run(os.Stdout, name, scale); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// runSubstrate runs the substrate experiment with its JSON side outputs:
// an optional report dump and an optional regression check against a
// committed baseline.
func runSubstrate(scale bench.Scale, jsonPath, baselinePath string, telGuard bool) error {
	rep, table, err := bench.RunSubstrate(scale, nil)
	if err != nil {
		return err
	}
	table.Fprint(os.Stdout)
	if jsonPath != "" {
		if err := rep.WriteJSON(jsonPath); err != nil {
			return err
		}
		fmt.Printf("substrate report written to %s\n", jsonPath)
	}
	if baselinePath != "" {
		base, err := bench.LoadSubstrateBaseline(baselinePath)
		if err != nil {
			return err
		}
		if err := rep.CheckAgainst(base); err != nil {
			return err
		}
		fmt.Printf("substrate micro metrics within 10%% of baseline %s\n", baselinePath)
	}
	if telGuard {
		if err := rep.CheckTelemetryOverhead(); err != nil {
			return err
		}
		fmt.Println("telemetry-enabled run overhead within the 2% budget")
	}
	return nil
}

// runThroughput runs the scaling-curve experiment with its JSON side
// outputs, mirroring runSubstrate.
func runThroughput(scale bench.Scale, jsonPath, baselinePath string) error {
	rep, table, err := bench.RunThroughput(scale, nil, nil)
	if err != nil {
		return err
	}
	table.Fprint(os.Stdout)
	if jsonPath != "" {
		if err := rep.WriteJSON(jsonPath); err != nil {
			return err
		}
		fmt.Printf("throughput report written to %s\n", jsonPath)
	}
	if baselinePath != "" {
		base, err := bench.LoadThroughputBaseline(baselinePath)
		if err != nil {
			return err
		}
		if err := rep.CheckAgainst(base); err != nil {
			return err
		}
		fmt.Printf("throughput within 25%% of baseline %s\n", baselinePath)
	}
	return nil
}

// checkParityBaseline asserts the committed throughput baseline's
// headline cell (sdrad w8 d16) holds the parity floor. It runs no
// benchmark — the check divides two recorded numbers — so it is exact
// and immune to runner noise: the gate moves only when someone commits
// a recording that fails it.
func checkParityBaseline(path string) error {
	base, err := bench.LoadThroughputBaseline(path)
	if err != nil {
		return err
	}
	if err := base.CheckParityFloor(bench.ParityHeadlineWorkers, bench.ParityHeadlineDepth, bench.ParityFloor); err != nil {
		return err
	}
	ratio, _ := base.ParityRatio(bench.ParityHeadlineWorkers, bench.ParityHeadlineDepth)
	fmt.Printf("parity: committed baseline %s holds sdrad w%d d%d at %.3fx vanilla (floor %.2fx)\n",
		path, bench.ParityHeadlineWorkers, bench.ParityHeadlineDepth, ratio, bench.ParityFloor)
	return nil
}

// runParity measures the paired sdrad/vanilla ratio table, optionally
// writing the JSON report and gating the live headline ratio against a
// caller-chosen floor (loose by design: live CI runs wear the runner's
// noise; the strict floor lives on the committed baseline).
func runParity(scale bench.Scale, jsonPath string, liveFloor float64) error {
	rep, table, err := bench.RunParity(scale, nil, nil, liveFloor)
	if table != nil {
		table.Fprint(os.Stdout)
	}
	if err != nil {
		return err
	}
	if jsonPath != "" {
		if err := rep.WriteJSON(jsonPath); err != nil {
			return err
		}
		fmt.Printf("parity report written to %s\n", jsonPath)
	}
	if liveFloor > 0 {
		fmt.Printf("live parity headline ratio clears the %.2fx floor\n", liveFloor)
	}
	return nil
}

// checkClusterGate asserts the committed cluster baseline's CPU-aware
// scaling floor and availability-under-kill floor. Like the parity
// gate it runs no benchmark — it reads recorded numbers — so runner
// noise cannot flake it; the gate moves only when someone commits a
// recording that fails it.
func checkClusterGate(path string) error {
	base, err := bench.LoadClusterBaseline(path)
	if err != nil {
		return err
	}
	if err := base.CheckScaling(); err != nil {
		return err
	}
	fmt.Printf("cluster: committed baseline %s holds 3v1 scaling %.2fx (recorded on %d cpus) with availability %.4f under a mid-run kill\n",
		path, base.Scaling3v1, base.CPUs, base.AvailabilityKill)
	return nil
}

// runCluster runs the routed cluster-scaling experiment with its JSON
// side outputs, mirroring runThroughput.
func runCluster(scale bench.Scale, jsonPath, baselinePath string) error {
	rep, table, err := bench.RunCluster(scale)
	if err != nil {
		return err
	}
	table.Fprint(os.Stdout)
	if jsonPath != "" {
		if err := rep.WriteJSON(jsonPath); err != nil {
			return err
		}
		fmt.Printf("cluster report written to %s\n", jsonPath)
	}
	if baselinePath != "" {
		base, err := bench.LoadClusterBaseline(baselinePath)
		if err != nil {
			return err
		}
		if err := base.CheckScaling(); err != nil {
			return err
		}
		if err := rep.CheckAgainst(base); err != nil {
			return err
		}
		fmt.Printf("routed throughput within tolerance of baseline %s; baseline scaling gate holds\n", baselinePath)
	}
	return nil
}

// runRecovery runs the recovery-cost experiment with its JSON side
// outputs, mirroring runThroughput.
func runRecovery(scale bench.Scale, jsonPath, baselinePath string) error {
	rep, table, err := bench.RunRecovery(scale)
	if err != nil {
		return err
	}
	table.Fprint(os.Stdout)
	if jsonPath != "" {
		if err := rep.WriteJSON(jsonPath); err != nil {
			return err
		}
		fmt.Printf("recovery report written to %s\n", jsonPath)
	}
	if baselinePath != "" {
		base, err := bench.LoadRecoveryBaseline(baselinePath)
		if err != nil {
			return err
		}
		if err := rep.CheckAgainst(base); err != nil {
			return err
		}
		fmt.Printf("recovery-via-rewind still cheaper than restart; cost within tolerance of baseline %s\n", baselinePath)
	}
	return nil
}
