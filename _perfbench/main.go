// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload through lightpath's public Go API for a fixed host-time
// budget, checks the workload's outputs for correctness, and prints
// one JSON result line:
//
//	perfbench -workload wire-churn -seed 2024 -seconds 20 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with
// -trace 1 a separate traced run records spans around the calls into
// each layer, profiles the CPU, and reports the per-layer metrics.
// README.md beside this file explains the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// options are one invocation's settings.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	// root is the checkout root: goldens are read from it and the
	// run's files are written under root/.bench_build.
	root string
	// work is this run's private directory (checkpoints).
	work string
	// spans is where a traced run writes its span log.
	spans string
}

// budget is the measured window's length.
func (o options) budget() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

// goldenSeed is the seed the committed goldens were produced at; at
// any other seed the workloads fall back to seed-independent checks.
const goldenSeed = 2024

// result is the JSON object printed as the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run hands back to main: the operations
// its measured window attempted, the end-to-end or per-layer values it
// measured (keyed by metric name), and the first failed correctness
// check. An operation that errors aborts the run, so a printed result
// always has failed = 0; refusals the controller is specified to give
// (shed, deadline, breaker, no path) are correct answers, not failures.
type outcome struct {
	attempted int64
	values    map[string]float64
	checkErr  error
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (wire-churn, ctrl-campaign, rail-ring)")
	seed := fs.Uint64("seed", goldenSeed, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "host seconds the measured window lasts")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	root := fs.String("root", ".", "checkout root")
	spans := fs.String("spans", "", "span log path for -trace 1 (default <root>/.bench_build/spans-<workload>.csv)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *trace == 1, root: *root, spans: *spans}
	if opts.spans == "" {
		opts.spans = filepath.Join(opts.root, ".bench_build", "spans-"+w.name+".csv")
	}
	buildDir := filepath.Join(opts.root, ".bench_build")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp(buildDir, "work-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer func() { _ = os.RemoveAll(work) }()
	opts.work = work

	out, err := w.run(opts)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	res, err := buildResult(out, opts.trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if out.checkErr != nil {
		fmt.Fprintf(stderr, "perfbench: %s: correctness check failed: %v\n", w.name, out.checkErr)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// buildResult assembles the printed result from a workload outcome:
// exactly the end-to-end metrics for an untraced run, exactly the
// per-layer metrics for a traced one.
func buildResult(out *outcome, traced bool) (result, error) {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	res := result{
		Correct:   out.checkErr == nil && out.attempted > 0,
		Attempted: out.attempted,
		Metrics:   make(map[string]metric, len(specs)),
	}
	var missing []error
	for _, s := range specs {
		v, ok := out.values[s.name]
		if !ok {
			missing = append(missing, fmt.Errorf("metric %s not measured", s.name))
			continue
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	return res, errors.Join(missing...)
}
