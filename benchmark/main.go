// Command benchmark is this repository's benchmark: what rewind-and-discard
// hardening costs a request, end to end and layer by layer.
//
//	go run ./benchmark [-workload name] [-seed n] [-seconds s] [-trace] [-out file]
//	go run ./benchmark -compare a.json b.json
//
// Every workload is a closed loop of two clients against a two-worker
// server, measured as paired rounds of two interleaved slices (reference
// arm, hardened arm, order alternating). Without -trace a run reports the
// end-to-end metrics; with it, the per-layer metrics and out/trace.json.
// Every reply is checked, and a violation ends the run with a non-zero
// exit and no metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// document is the one JSON schema the benchmark writes (-out) and reads
// (-compare).
type document struct {
	Schema  string  `json:"schema"`
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds"`
	Trace   bool    `json:"trace"`
	Env     struct {
		NProc      int    `json:"nproc"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		Go         string `json:"go"`
	} `json:"env"`
	Workloads []*result `json:"workloads"`
}

const schema = "sdrad-benchmark/v1"

// splitTrace lets -trace be given bare, as -trace=1, or as the driver
// gives it, "--trace 1": the flag package would end parsing at the
// detached value of a boolean flag.
func splitTrace(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		if a := args[i]; (a == "-trace" || a == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, args[i])
	}
	return out
}

// options is one invocation's settings; the flags fill it.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	// probeBatch is the length a probe batch is calibrated to. No flag sets
	// it: the tests shorten it.
	probeBatch time.Duration
}

func run(args []string, stdout, stderr io.Writer) int {
	o := options{probeBatch: probeBatchTime}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all five)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the request streams")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds per workload, in paired 100 ms slices")
	fs.BoolVar(&o.trace, "trace", false, "traced run: per-layer metrics and trace.json next to -out")
	fs.StringVar(&o.out, "out", filepath.Join("benchmark", "out", "result.json"), "where the JSON document goes")
	compare := fs.Bool("compare", false, "compare two documents: -compare a.json b.json")
	if err := fs.Parse(splitTrace(args)); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result documents")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || o.seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: unexpected arguments; see -h")
		return 2
	}
	return execute(o, stdout, stderr)
}

// execute measures the chosen workloads, prints their metrics and writes
// the documents. It returns the exit code: 1 on a correctness violation,
// before which nothing of the violating workload has been printed.
func execute(o options, stdout, stderr io.Writer) int {
	todo := workloads
	if o.workload != "" {
		w := findWorkload(o.workload)
		if w == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", o.workload)
			return 2
		}
		todo = []workload{*w}
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}

	doc := &document{Schema: schema, Seed: o.seed, Seconds: o.seconds, Trace: o.trace}
	doc.Env.NProc, doc.Env.GOMAXPROCS, doc.Env.Go = runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()
	fmt.Fprintf(stdout, "# nproc=%d GOMAXPROCS=%d %s seed=%d seconds=%g trace=%v\n",
		doc.Env.NProc, doc.Env.GOMAXPROCS, doc.Env.Go, o.seed, o.seconds, o.trace)

	var tr *tracer
	var probes map[string]float64
	if o.trace {
		tr = newTracer()
		var err error
		if probes, err = runProbes(tr, o.seed, o.probeBatch); err != nil {
			return fail(err)
		}
		for _, l := range perLayer {
			if v, ok := probes[l.Name]; ok {
				printMetric(stdout, "probes", l.Name, v, l.Unit)
			}
		}
	}
	for i := range todo {
		w := &todo[i]
		e, err := newEngine(w, o.seed, o.seconds, tr)
		var res *result
		if err == nil {
			if o.trace {
				res, err = e.measureTraced(probes)
			} else {
				res, err = e.measure()
			}
		}
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.Name, err))
		}
		doc.Workloads = append(doc.Workloads, res)
		report(stdout, res, o.trace, probes)
	}
	if err := writeJSON(o.out, doc); err != nil {
		return fail(err)
	}
	if tr != nil {
		if err := tr.write(filepath.Join(filepath.Dir(o.out), "trace.json")); err != nil {
			return fail(err)
		}
	}
	return 0
}

// writeJSON writes doc to path, creating its directory.
func writeJSON(path string, doc any) error {
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func printMetric(w io.Writer, workload, metric string, v float64, unit string) {
	fmt.Fprintf(w, "%s %s %s %s\n", workload, metric, strconv.FormatFloat(v, 'g', -1, 64), unit)
}

// report prints one workload's metrics as "workload metric value unit"
// lines and then its result line: one JSON object holding the metrics the
// driver is promised, every uniform end-to-end metric of an untraced run
// or every per-layer metric of a traced one.
func report(w io.Writer, res *result, traced bool, probes map[string]float64) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{true, res.Attempted, res.Failed, map[string]value{}}
	if traced {
		for _, l := range perLayer {
			if _, probe := probes[l.Name]; !probe {
				printMetric(w, res.Workload, l.Name, res.Metrics[l.Name], l.Unit)
			}
			line.Metrics[l.Name] = value{res.Metrics[l.Name], l.Unit}
		}
	} else {
		for _, m := range endToEnd {
			if !m.appliesTo(res.Workload) {
				continue
			}
			printMetric(w, res.Workload, m.Name, res.Metrics[m.Name], m.Unit)
			if m.uniform() {
				line.Metrics[m.Name] = value{res.Metrics[m.Name], m.Unit}
			}
		}
		fmt.Fprintf(w, "# %s latency percentiles rest on at least %d calls per slice\n", res.Workload, res.LatSamples)
	}
	data, _ := json.Marshal(line) // a struct of numbers and strings always marshals
	fmt.Fprintf(w, "%s\n", data)
}
