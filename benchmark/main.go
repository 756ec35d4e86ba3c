// Command benchmark is dropscope's one benchmark: it runs the two real
// programs (cmd/dropscope, cmd/dropscoped) over archives generated from
// -seed, prints every end-to-end metric by name with its unit and
// sample count, checks every output, and exits non-zero on a mismatch.
// With -trace 1 it instead times each layer's public functions from
// here, in process, and writes the spans to out/trace.json.
//
//	sh benchmark/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-selfcheck]
//	(cd benchmark && go run . ...)
//
// Without -workload every workload runs in turn. README.md has the
// method; BENCHMARK.json at the repository root has the bounds.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		name      = flag.String("workload", "", "workload to run (default: all of them in turn)")
		seed      = flag.Int64("seed", 1, "seed of every generated input: archives and request ring")
		seconds   = flag.Int("seconds", 0, "length of the closed-loop traffic window in seconds (default: run_seconds of BENCHMARK.json)")
		trace     = flag.String("trace", "0", "0 = end-to-end metrics from the real programs, tracing off; 1 = per-layer metrics from traced in-process calls")
		selfcheck = flag.Bool("selfcheck", false, "run the untraced suite twice and fail unless every metric agrees with itself within its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != "0" && *trace != "1") {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-selfcheck]")
		return 2
	}
	ws := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: no workload %q\n", *name)
			return 2
		}
		ws = []workload{w}
	}

	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()
	e, err := newEnv(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer e.close()
	spec, err := loadSpec(e.benchDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	window := time.Duration(*seconds) * time.Second
	e.fp = newFingerprint(e, *seed)
	e.fp.print()

	if *selfcheck {
		return selfCheck(ctx, e, spec, ws, *seed, window)
	}
	code := 0
	for _, w := range ws {
		var r *result
		if *trace == "1" {
			r, err = runTraced(ctx, e, w, *seed, window)
		} else {
			r, err = runWorkload(ctx, e, w, *seed, window)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: workload %s: %v\n", w.name, err)
			return 1
		}
		names := spec.names(*trace == "1")
		if err := r.complete(names); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: workload %s: %v\n", w.name, err)
			return 1
		}
		r.print(names)
		if r.failed > 0 {
			code = 1
		}
	}
	return code
}

// complete reports a metric the run should have produced and did not.
func (r *result) complete(names []string) error {
	for _, n := range names {
		if _, ok := r.metrics[n]; !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
	}
	return nil
}

// print writes the readable table, any failures, and — last — the one
// JSON line the driver reads.
func (r *result) print(names []string) {
	fmt.Printf("\nworkload %s  seed %d\n", r.workload, r.seed)
	fmt.Printf("  %-34s %14s %-6s %8s\n", "metric", "value", "unit", "samples")
	for _, n := range names {
		m := r.metrics[n]
		fmt.Printf("  %-34s %14.4f %-6s %8d\n", n, m.value, m.unit, m.n)
	}
	info := make([]string, 0, len(r.info))
	for n := range r.info {
		info = append(info, n)
	}
	sort.Strings(info)
	for _, n := range info {
		m := r.info[n]
		fmt.Printf("  %-34s %14.4f %-6s %8d  (ungated)\n", n, m.value, m.unit, m.n)
	}
	failRate := 0.0
	if r.attempted > 0 {
		failRate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("  %-34s %14.6f %-6s %8d\n", "fail_rate", failRate, "ratio", r.attempted)
	for _, e := range r.errs {
		fmt.Printf("  FAILED: %s\n", e)
	}

	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]jm{}}
	for _, n := range names {
		out.Metrics[n] = jm{r.metrics[n].value, r.metrics[n].unit}
	}
	b, _ := json.Marshal(out) // a map of plain floats and strings cannot fail to encode
	fmt.Printf("%s\n", b)
}
