package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// spec is BENCHMARK.json: the one place the metric names, units,
// directions and bounds are fixed. The program reads it rather than
// repeating it, so the two cannot drift.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(benchDir string) (*spec, error) {
	b, err := os.ReadFile(filepath.Join(filepath.Dir(benchDir), "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// names lists the metrics a run must report, in BENCHMARK.json's order.
func (s *spec) names(traced bool) []string {
	ms := s.EndToEnd
	if traced {
		ms = s.PerLayer
	}
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}

// fingerprint states what a set of numbers was taken on; every output
// carries it.
type fingerprint struct {
	Cores      int     `json:"cores"`
	CPU        string  `json:"cpu"`
	Kernel     string  `json:"kernel"`
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Clients    int     `json:"clients"`
	Seed       int64   `json:"seed"`
	Commit     string  `json:"commit"`
	BuildS     float64 `json:"build_s"`
}

func newFingerprint(e *env, seed int64) fingerprint {
	f := fingerprint{
		Cores: runtime.NumCPU(), CPU: "unknown", Kernel: "unknown", Go: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: clients(), Seed: seed,
		Commit: "unknown", // a driver's checkout is not a git repository
		BuildS: e.buildS,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				f.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		f.Kernel = strings.TrimSpace(string(b))
	}
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Dir = e.benchDir
	if b, err := cmd.Output(); err == nil {
		f.Commit = strings.TrimSpace(string(b))
	}
	return f
}

func (f fingerprint) print() {
	fmt.Printf("machine: %d cores, %s, linux %s, %s, GOMAXPROCS %d\n", f.Cores, f.CPU, f.Kernel, f.Go, f.GOMAXPROCS)
	fmt.Printf("run: %d closed-loop clients, seed %d, commit %s, programs built in %.2f s\n", f.Clients, f.Seed, f.Commit, f.BuildS)
}

// selfCheck runs the untraced suite twice back to back and compares
// each (metric, workload) pair with itself: the evidence that a bound
// is wider than the benchmark's own noise, and the tool for re-sizing a
// repeat count when it is not.
func selfCheck(ctx context.Context, e *env, s *spec, ws []workload, seed int64, window time.Duration) int {
	names := s.names(false)
	var runs [2]map[string]*result
	for i := range runs {
		runs[i] = map[string]*result{}
		for _, w := range ws {
			r, err := runWorkload(ctx, e, w, seed, window)
			if err == nil {
				err = r.complete(names)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: selfcheck pass %d, workload %s: %v\n", i+1, w.name, err)
				return 1
			}
			r.print(names)
			if r.failed > 0 {
				return 1
			}
			runs[i][w.name] = r
		}
	}
	code := 0
	fmt.Printf("\nselfcheck: second pass against the first\n")
	fmt.Printf("  %-10s %-16s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for _, w := range ws {
		for _, m := range s.EndToEnd {
			a, b := runs[0][w.name].metrics[m.Name].value, runs[1][w.name].metrics[m.Name].value
			worse := worseBy(a, b, m.Better)
			verdict := "ok"
			if math.Abs(worse) > m.Bound {
				verdict = "DISAGREE"
				code = 1
			}
			fmt.Printf("  %-10s %-16s %14.4f %14.4f %8.1f%% %6.0f%%  %s\n",
				w.name, m.Name, a, b, 100*worse, 100*m.Bound, verdict)
		}
	}
	return code
}

// worseBy is how much worse b is than a, as a share of a; negative when
// b is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}
