// Command sdrad-bench regenerates the paper's evaluation tables and
// figures on the simulated substrate and prints them as text. It reads
// and writes no file: an experiment that states a claim (recovery,
// cluster, telemetry) judges it against a reference arm measured in the
// same run and exits non-zero when the run violates it.
//
// Usage:
//
//	sdrad-bench                  # run every experiment at full scale
//	sdrad-bench -quick           # run every experiment at test scale
//	sdrad-bench -fig4 -fig5      # run selected experiments
//	sdrad-bench -list            # list experiment names
//
// See DESIGN.md §5 for the experiment index and EXPERIMENTS.md for the
// paper-vs-measured record. What hardening costs a served request is
// measured by `bash benchmark/run.sh`, not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"sdrad/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sdrad-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sdrad-bench", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "use the reduced test scale")
	list := fs.Bool("list", false, "list experiment names and exit")
	selected := make(map[string]*bool, len(bench.Experiments))
	for _, name := range bench.Experiments {
		selected[name] = fs.Bool(name, false, "run the "+name+" experiment")
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, name := range bench.Experiments {
			fmt.Fprintln(out, name)
		}
		return nil
	}
	scale, scaleName := bench.Full, "full"
	if *quick {
		scale, scaleName = bench.Quick, "quick"
	}
	var toRun []string
	for _, name := range bench.Experiments {
		if *selected[name] {
			toRun = append(toRun, name)
		}
	}
	if len(toRun) == 0 {
		toRun = bench.Experiments
	}
	fmt.Fprintf(out, "SDRaD-Go evaluation (scale: %s)\n", scaleName)
	fmt.Fprintf(out, "Reproducing: Gülmez et al., \"Rewind & Discard\", DSN 2023\n\n")
	for _, name := range toRun {
		if err := bench.Run(out, name, scale); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}
