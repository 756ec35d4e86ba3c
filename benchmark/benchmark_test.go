package main

import (
	"context"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"dropscope/internal/bgp"
	"dropscope/internal/netx"
	"dropscope/internal/rib"
	"dropscope/internal/scenario"
	"dropscope/internal/timex"
)

// referenceQuantile is the definition, written the slow way: the
// smallest sample with at least q of the samples at or below it.
func referenceQuantile(xs []int64, q float64) int64 {
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	for _, v := range sorted {
		atOrBelow := 0
		for _, x := range xs {
			if x <= v {
				atOrBelow++
			}
		}
		if float64(atOrBelow) >= q*float64(len(xs)) {
			return v
		}
	}
	return sorted[len(sorted)-1]
}

func TestQuantileMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 1000} {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = int64(rng.Intn(50)) // ties on purpose
		}
		sorted := slices.Clone(xs)
		slices.Sort(sorted)
		for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
			if got, want := quantile(sorted, q), referenceQuantile(xs, q); got != want {
				t.Errorf("n=%d q=%g: quantile %d, reference %d", n, q, got, want)
			}
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing should be 0")
	}
}

func TestMedianAndTopPercentile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %g", got)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999}, {120000, 0.9999}} {
		if got := topPercentile(c.n); got != c.want {
			t.Errorf("topPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// fakeIndex answers the two queries the ring builder makes.
type fakeIndex struct {
	rib.Querier
	prefixes []netx.Prefix
}

func (f fakeIndex) Prefixes() []netx.Prefix { return f.prefixes }
func (f fakeIndex) OriginAt(p netx.Prefix, d timex.Day) (bgp.ASN, bool) {
	return 64500, (uint32(p.Addr())>>8+uint32(d))%3 == 0
}

func testRing(t *testing.T, seed uint64, m mix) *ring {
	t.Helper()
	ix := fakeIndex{}
	for i := 0; i < 500; i++ {
		ix.prefixes = append(ix.prefixes, netx.PrefixFrom(netx.Addr(10<<24|i<<8), 24))
	}
	window := scenario.DefaultParams().Window
	r, err := buildRing(ix, window, seed, ringSize, m, figureDays(window, seed))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRingDeterminismAndShares(t *testing.T) {
	a, b, c := testRing(t, 7, mixedMix), testRing(t, 7, mixedMix), testRing(t, 8, mixedMix)
	if !slices.Equal(a.paths, b.paths) {
		t.Error("the same seed gave two different rings")
	}
	if slices.Equal(a.paths, c.paths) {
		t.Error("different seeds gave the same ring")
	}
	if len(a.paths) != ringSize {
		t.Fatalf("ring has %d entries, want %d", len(a.paths), ringSize)
	}
	var got [numKinds]int
	for _, k := range a.kinds {
		got[k]++
	}
	for k, share := range mixedMix {
		want := float64(share) / ringBlock
		if have := float64(got[k]) / ringSize; math.Abs(have-want) > 0.01*want+1e-4 {
			t.Errorf("%s: share %.5f, want %.5f within 1%%", kindNames[k], have, want)
		}
	}
	// Any stretch a window might cover holds the mix too: that is what
	// the stratified ring is for.
	for start := 0; start+ringBlock <= ringSize; start += 7777 {
		lo := start - start%ringBlock
		heavy := 0
		for _, k := range a.kinds[lo : lo+ringBlock] {
			if k == kFigures {
				heavy++
			}
		}
		if heavy != mixedMix[kFigures] {
			t.Errorf("block at %d holds %d figures requests, want %d", lo, heavy, mixedMix[kFigures])
		}
	}
	days := map[string]bool{}
	for i, k := range a.kinds {
		if k == kFigures {
			days[a.paths[i]] = true
		}
	}
	if len(days) != figureDayCount {
		t.Errorf("figures requests ask for %d distinct days, want %d", len(days), figureDayCount)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 50}, // overlaps span 1: 20..30 counted once
		{ID: 3, Parent: 2, Start: 25, End: 45},
		{ID: 4, Parent: 0, Start: 90, End: 120}, // runs past its parent: only 90..100 is the parent's
		{ID: 5, Parent: -1, Start: 200, End: 260},
	}
	want := []time.Duration{50, 20, 10, 20, 30, 60}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self time %d, want %d", i, got[i], want[i])
		}
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("outer")
	if _, err := tr.do("inner", func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	tr.end(outer)
	if tr.spans[1].Parent != outer || tr.spans[0].Parent != -1 {
		t.Errorf("parents: %+v", tr.spans)
	}
	if tr.spans[1].Start < tr.spans[0].Start || tr.spans[1].End > tr.spans[0].End {
		t.Errorf("inner span is not inside the outer one: %+v", tr.spans)
	}
}

func TestCheckResponseRejects(t *testing.T) {
	resp := func(code int, gen string) *http.Response {
		h := http.Header{}
		h.Set(generationHeader, gen)
		return &http.Response{StatusCode: code, Header: h}
	}
	gens := []string{"aaaa"}
	body := []byte(`{"visible":3}`)
	if err := checkResponse(resp(200, "aaaa"), gens, body, body); err != nil {
		t.Errorf("a correct response was rejected: %v", err)
	}
	if checkResponse(resp(503, "aaaa"), gens, nil, nil) == nil {
		t.Error("a 503 was accepted")
	}
	if checkResponse(resp(200, "bbbb"), gens, nil, nil) == nil {
		t.Error("an answer from another generation was accepted")
	}
	if checkResponse(resp(200, "aaaa"), gens, body, []byte(`{"visible":4}`)) == nil {
		t.Error("a wrong body was accepted")
	}
}

func TestCheckReportsRejects(t *testing.T) {
	r := &result{}
	ref := [32]byte{1}
	checkReports(r, ref, [][32]byte{ref, ref})
	if r.failed != 0 {
		t.Errorf("identical reports failed the run: %v", r.errs)
	}
	checkReports(r, ref, [][32]byte{ref, {2}})
	if r.failed != 1 {
		t.Errorf("a report with another digest: failed = %d, want 1", r.failed)
	}
}

func TestSummarizeRefusesThinP99(t *testing.T) {
	r := loadResult{seconds: 1}
	for i := 0; i < minP99Samples-1; i++ {
		r.samples = append(r.samples, sample{end: int64(i), lat: 1000})
	}
	if _, err := summarize([]loadResult{r}); err == nil {
		t.Errorf("a p99 was reported from %d samples", len(r.samples))
	}
	r.samples = append(r.samples, sample{end: 5, lat: 1000})
	if _, err := summarize([]loadResult{r}); err != nil {
		t.Errorf("%d samples should do: %v", len(r.samples), err)
	}
}

func TestWorseBy(t *testing.T) {
	if got := worseBy(100, 110, "lower"); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("lower-is-better 100 -> 110: %g", got)
	}
	if got := worseBy(100, 90, "higher"); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("higher-is-better 100 -> 90: %g", got)
	}
	if got := worseBy(100, 90, "lower"); got >= 0 {
		t.Errorf("an improvement counted as worse: %g", got)
	}
}

func TestAmplifyExact(t *testing.T) {
	gen := func(seed int64) map[string]int {
		cfg := scenario.DefaultParams()
		cfg.Scale = 2048
		w, err := scenario.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		before := map[string]int{}
		for name, recs := range w.MRT {
			before[name] = len(recs)
		}
		collectors := len(w.Collectors)
		amplifyExact(w, 300, 128, seed)
		if len(w.Collectors) != collectors {
			t.Fatalf("amplifyExact left %d of %d collectors on the world", len(w.Collectors), collectors)
		}
		sizes := map[string]int{}
		for name, recs := range w.MRT {
			if got := len(recs) - before[name]; got != 300 {
				t.Errorf("seed %d, collector %s: %d churn records, want 300", seed, name, got)
			}
			n := 0
			for _, r := range recs[before[name]:] {
				n += r.Timestamp().Nanosecond() + int(r.Timestamp().Unix()%1000)
			}
			sizes[name] = n
		}
		return sizes
	}
	a, b, c := gen(1), gen(1), gen(2)
	for name := range a {
		if a[name] != b[name] {
			t.Errorf("collector %s: the same seed gave different churn", name)
		}
	}
	same := true
	for name := range a {
		same = same && a[name] == c[name]
	}
	if same {
		t.Error("different seeds gave the same churn")
	}
}

// TestSpecMatchesProgram ties BENCHMARK.json to the tables in the code.
func TestSpecMatchesProgram(t *testing.T) {
	dir, err := findBenchDir()
	if err != nil {
		t.Fatal(err)
	}
	s, err := loadSpec(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.name || s.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%s), the program %q (%s)", i, s.Workloads[i].Name, s.Workloads[i].Why, w.name, w.why)
		}
	}
	seen := map[string]bool{}
	setup := false
	for _, m := range append(slices.Clone(s.EndToEnd), s.PerLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s is listed twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range s.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, tm := range trafficMixes {
		for _, suffix := range []string{"_qps", "_p50_us", "_p99_us"} {
			if !seen[tm.name+suffix] {
				t.Errorf("BENCHMARK.json lacks %s", tm.name+suffix)
			}
		}
	}
	for _, name := range experimentNames {
		if !seen["analysis.exp."+name+"_ms"] {
			t.Errorf("BENCHMARK.json lacks analysis.exp.%s_ms", name)
		}
	}
}

// TestWorkloadSmoke runs one whole workload against the real programs
// with a one-second window: every end-to-end metric must come out, and
// nothing may fail. It builds and runs for half a minute, so -short
// skips it.
func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real programs for half a minute")
	}
	e, err := newEnv(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	s, err := loadSpec(e.benchDir)
	if err != nil {
		t.Fatal(err)
	}
	r, err := runWorkload(context.Background(), e, workloads[0], 1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.complete(s.names(false)); err != nil {
		t.Error(err)
	}
	if r.failed != 0 || r.attempted < minP99Samples {
		t.Errorf("attempted %d, failed %d: %v", r.attempted, r.failed, r.errs)
	}
	for name, m := range r.metrics {
		if !(m.value > 0) {
			t.Errorf("%s = %g; an end-to-end metric is never 0", name, m.value)
		}
	}
	left, err := filepath.Glob(filepath.Join(e.tmp, "*"))
	if err != nil {
		t.Fatal(err)
	}
	e.close()
	if _, err := os.Stat(e.tmp); !os.IsNotExist(err) {
		t.Errorf("the temp root %s (holding %d entries) outlived close", e.tmp, len(left))
	}
}
