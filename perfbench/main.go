// Command perfbench is the repository benchmark. One invocation runs one
// workload against the ISIS stack, checks that every delivery was correct,
// and prints the workload's metrics, ending with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// is split into an untraced and a traced half and the metrics are the
// per-layer ones (spans, counters and layer replays). See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// setupRepeats is how many times a run builds its cluster; setup_s is the
// median, and the last cluster built is the one measured.
const setupRepeats = 7

// subWindows is how many consecutive parts the measured window is split
// into (see combineParts).
const subWindows = 10

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the final line of the benchmark's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: rpc-mix, stream-tcp, churn, or all of them")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the measured window")
	traced := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	out := fs.String("out", ".bench_build", "directory the traced run writes its span file to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	_, ok := workloads[*name]
	if !ok && *name != "all" || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s or all), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	window := time.Duration(*seconds * float64(time.Second))
	if *name != "all" {
		return runOne(*name, *seed, window, *traced == 1, *out, stdout, stderr)
	}
	// Every workload in turn, each ending with its own result line.
	code := 0
	for _, n := range workloadNames() {
		code = max(code, runOne(n, *seed, window, *traced == 1, *out, stdout, stderr))
	}
	return code
}

// runOne runs one workload and prints its result line; it returns the
// process exit code.
func runOne(name string, seed int64, window time.Duration, traced bool, out string, stdout, stderr io.Writer) int {
	var res result
	var err error
	if traced {
		res, err = runTraced(name, seed, window, out, stdout)
	} else {
		res, err = runMeasured(name, seed, window, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
		if res.Metrics == nil {
			return 1
		}
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runMeasured is the untraced run: set up several times, measure the last
// cluster for the window, check correctness, report end-to-end metrics.
func runMeasured(name string, seed int64, window time.Duration, stdout io.Writer) (result, error) {
	w, setups, err := setUp(name, seed)
	if err != nil {
		return result{}, err
	}
	defer w.close()
	parts := make([]*phase, subWindows)
	for i := range parts {
		parts[i] = w.measure(window / subWindows)
	}
	checkErr := w.check()
	e2e, ph := combineParts(parts)
	e2e["setup_s"] = median(setups)
	printHuman(stdout, name, "", e2e, ph)
	res := result{
		Correct:   checkErr == nil && ph.violations == nil,
		Attempted: ph.attempted,
		Failed:    ph.failed,
		Metrics:   withUnits(e2e, endToEndMetrics),
	}
	return res, errors.Join(checkErr, ph.violations)
}

// setUp builds the workload setupRepeats times and keeps the last one.
func setUp(name string, seed int64) (workload, []float64, error) {
	var setups []float64
	var w workload
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			w.close()
		}
		w = workloads[name](seed)
		start := time.Now()
		if err := w.setup(); err != nil {
			w.close()
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	return w, setups, nil
}

// withUnits attaches each metric's unit from its definition; a metric the
// run did not produce is reported as 0 so the key set is always complete.
func withUnits(vals map[string]float64, defs []metricDef) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

// printHuman prints every metric the run computed, one per line, including
// the workload-specific names the generic end-to-end metrics stand for.
func printHuman(w io.Writer, workload, prefix string, vals map[string]float64, ph *phase) {
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s %s%s %.6g %s\n", workload, prefix, n, vals[n], unitOf(n))
	}
	if ph == nil {
		return
	}
	fmt.Fprintf(w, "%s %sfailed_frac %.6g (%d of %d ops)\n", workload, prefix, ph.failedFrac(), ph.failed, ph.attempted)
	for _, a := range ph.aliases {
		fmt.Fprintf(w, "%s %s%s %.6g %s (n=%d)\n", workload, prefix, a.name, a.value, a.unit, a.n)
	}
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}
