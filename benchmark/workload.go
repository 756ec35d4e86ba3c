package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"time"

	"dropscope/internal/ribsnap"
	"dropscope/internal/serve"
	"dropscope/internal/timex"
)

// workload is one life of an archive: the researcher's batch runs over
// it (cold, a day appended, warm), then the operator's daemon over it
// (boots, a traffic window per request mix, reloads). The workloads
// differ in how the index is held: whole and resident, or cut into
// prefix-range shards of which only some may be mapped at once.
type workload struct {
	name      string
	why       string
	shards    int // 0 = single index
	memBudget int // with shards: how many may be mapped at once
}

var workloads = []workload{
	{
		name: "resident",
		why:  "single resident index: every lookup is served from memory, so request cost is parsing, one lookup, net/http and the wire, and batch cost is decode, freeze, text parsing and the experiments",
	},
	{
		name:   "sharded",
		why:    "4 prefix-range shards, 2 mappable at once, uniform prefixes: half the lookups fault a shard in (working set larger than the cache) and every sweep fans out over shards",
		shards: 4, memBudget: 2,
	},
}

// trafficMix is one closed-loop window of a run; its name prefixes the
// window's metrics.
type trafficMix struct {
	name string
	mix  mix
}

// Both mixes run against the same daemon, point first: an optimisation
// of the allocating endpoints should move mixed_* and leave point_*
// alone, and the reverse for anything added to the fast path.
var trafficMixes = []trafficMix{{"point", pointMix}, {"mixed", mixedMix}}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// loadWarmup is how long the clients run before a window opens: long
// enough to connect and to touch every shard, no longer, because a run
// has four windows.
const loadWarmup = 500 * time.Millisecond

// clients is the closed-loop client count: min(nproc, 4).
func clients() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// metric is one reported number.
type metric struct {
	value float64
	unit  string
	n     int // samples behind it
}

// result is one run of one workload.
type result struct {
	workload  string
	seed      int64
	metrics   map[string]metric
	info      map[string]metric // printed, never gated
	attempted int
	failed    int
	errs      []string
}

func (r *result) fail(format string, args ...any) { r.failN(1, format, args...) }

// failN counts n failed operations under one message.
func (r *result) failN(n int, format string, args ...any) {
	r.failed += n
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// state is what set-up leaves for the measured phases.
type state struct {
	in        *inputs
	seedStore string            // the snapshot store set-up seeded; each daemon gets a copy
	gens      [2]string         // generation digests: A-base, A-grown1
	figDays   []timex.Day       // the days /v1/figures is asked for
	rings     []*ring           // one per trafficMixes entry
	wants     []map[int][]byte  // in-process answers for a sample of each ring
	gen       *serve.Generation // in-process generation; nil once released
	root      string            // the workload's directory under the temp root
	w         workload
}

// cliFlags are the flags every batch run of the workload gets.
func (st *state) cliFlags() []string {
	if st.w.shards > 1 {
		return []string{"-shards", strconv.Itoa(st.w.shards)}
	}
	return nil
}

// setup builds everything a workload needs before its first timed
// operation: the archives, the request rings, the in-process answers
// and a warm snapshot store for the daemon.
func setup(e *env, w workload, seed int64) (*state, error) {
	root, err := e.dir("w-" + w.name)
	if err != nil {
		return nil, err
	}
	in, err := generateInputs(filepath.Join(root, "in"), seed)
	if err != nil {
		return nil, err
	}
	st := &state{in: in, root: root, seedStore: filepath.Join(root, "store-seed"), w: w}
	runtime.GC() // the generated world is garbage from here on

	// The store is seeded by the daemon's own loader, in this process,
	// with the daemon's options: the generation it returns is also the
	// oracle the daemon's answers are compared with. Every daemon gets a
	// copy, so it is the only process ever to open its store.
	store, err := ribsnap.OpenStore(st.seedStore, ribsnap.StoreOptions{})
	if err != nil {
		return nil, err
	}
	gen, err := serve.Load(in.base, serve.LoadOptions{
		Window: in.window, Store: store, Shards: w.shards, Delta: true,
	})
	if err != nil {
		return nil, fmt.Errorf("seeding the snapshot store: %w", err)
	}
	st.gen = gen
	st.gens[0] = gen.DigestHex()
	grownDigest, err := ribsnap.DigestMRT(filepath.Join(in.grown, "mrt"))
	if err != nil {
		return nil, err
	}
	st.gens[1] = hex.EncodeToString(grownDigest[:])

	oracle := serve.New(gen)
	st.figDays = figureDays(in.window, uint64(seed))
	for i, tm := range trafficMixes {
		rg, err := buildRing(gen.Pipeline().Index, in.window, uint64(seed)+uint64(i)<<32, ringSize, tm.mix, st.figDays)
		if err != nil {
			return nil, err
		}
		want, err := expectations(oracle, rg)
		if err != nil {
			return nil, err
		}
		st.rings, st.wants = append(st.rings, rg), append(st.wants, want)
	}

	return st, nil
}

// daemonDirs is one daemon's private state: its archive (A-base, grown
// in place by a reload), its snapshot store (a copy of the seeded one,
// so its boots are warm) and the flags that point it at both.
type daemonDirs struct {
	live, store string
	args        []string
}

func (st *state) daemonDirs(n int) (*daemonDirs, error) {
	d := &daemonDirs{
		live:  filepath.Join(st.root, fmt.Sprintf("live-%d", n)),
		store: filepath.Join(st.root, fmt.Sprintf("store-%d", n)),
	}
	if err := copyTree(st.seedStore, d.store); err != nil {
		return nil, err
	}
	if err := linkTree(st.in.base, d.live, "mrt"); err != nil {
		return nil, err
	}
	if err := copyTree(filepath.Join(st.in.base, "mrt"), filepath.Join(d.live, "mrt")); err != nil {
		return nil, err
	}
	d.args = []string{"-archive", d.live, "-snapshot", d.store}
	if st.w.shards > 1 {
		d.args = append(d.args, "-shards", strconv.Itoa(st.w.shards), "-mem-budget", strconv.Itoa(st.w.memBudget))
	}
	return d, nil
}

// release drops the in-process generation: during the traffic window
// the generator's heap should hold the ring and little else, so its
// collector has next to nothing to mark.
func (st *state) release() {
	st.gen = nil
	debug.FreeOSMemory()
}

// growLive appends to each file of the live archive's mrt/ the bytes
// the grown archive has beyond it — a day arriving.
func growLive(live, grown string) error {
	ents, err := os.ReadDir(filepath.Join(grown, "mrt"))
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if err := appendSuffix(filepath.Join(grown, "mrt", ent.Name()), filepath.Join(live, "mrt", ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func appendSuffix(src, dst string) (err error) {
	out, err := os.OpenFile(dst, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := out.Close(); err == nil {
			err = cerr
		}
	}()
	have, err := out.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	if _, err := in.Seek(have, io.SeekStart); err != nil {
		return err
	}
	_, err = io.Copy(out, in)
	return err
}

// rounds is how many times a run goes through every operation. Each
// round samples every end-to-end metric once; the rounds are twenty
// seconds apart, and the run reports each metric from its better round
// (see fastest, below, and README.md).
const rounds = 2

// runner carries one untraced run through its rounds.
type runner struct {
	e      *env
	st     *state
	r      *result
	window time.Duration

	samples map[string][]float64 // by metric name
	loads   [][]loadResult       // by traffic mix: one window per round
	saved   string               // the cache as round one's cold run of A-base left it
	ref     *[32]byte            // report digest of the cold run of A-grown1
	incr    [][32]byte           // report digests of the append and warm runs
}

func (rn *runner) sample(name string, v float64) {
	rn.samples[name] = append(rn.samples[name], v)
}

// cli runs cmd/dropscope once and records its wall time under name.
// It returns nil when the run failed; the failure is already counted.
func (rn *runner) cli(name string, args ...string) (*cliResult, error) {
	rn.r.attempted++
	res, err := rn.e.runCLI(append(args, rn.st.cliFlags()...)...)
	if err != nil {
		if rn.e.ctx.Err() != nil {
			return nil, rn.e.ctx.Err()
		}
		rn.r.fail("%s: %v", name, err)
		return nil, nil
	}
	rn.sample(name+"_s", res.wallS)
	rn.sample("cli_rss_mb", res.rssMB)
	return &res, nil
}

// batch is the researcher's side of a round: a cold run into an empty
// cache (`cold_s`), the run that ingests the day A-grown1 appended onto
// a cache holding A-base's snapshot (`append_s`), and a warm run of the
// result (`warm_s`). Round one's cold run is over A-base and leaves the
// cache the append needs; later rounds run cold over A-grown1 (1.3 %
// more records), which also yields the reference report, and append
// onto a copy of round one's cache.
func (rn *runner) batch(round int) error {
	in := rn.st.in
	cache, err := rn.e.dir(fmt.Sprintf("cache-%d", round))
	if err != nil {
		return err
	}
	if round == 0 {
		if _, err := rn.cli("cold", "-load", in.base, "-index-cache", cache); err != nil {
			return err
		}
		if err := copyTree(cache, rn.saved); err != nil {
			return err
		}
	} else {
		cold, err := rn.e.dir(fmt.Sprintf("cache-%d-cold", round))
		if err != nil {
			return err
		}
		ref, err := rn.cli("cold", "-load", in.grown, "-index-cache", cold)
		if err != nil {
			return err
		}
		if ref != nil {
			rn.ref = &ref.digest
		}
		if err := copyTree(rn.saved, cache); err != nil {
			return err
		}
	}
	for _, s := range []struct {
		name string
		args []string
	}{
		{"append", []string{"-load", in.grown, "-index-cache", cache, "-append"}},
		{"warm", []string{"-load", in.grown, "-index-cache", cache}},
	} {
		res, err := rn.cli(s.name, s.args...)
		if err != nil {
			return err
		}
		if res != nil {
			rn.incr = append(rn.incr, res.digest)
		}
	}
	return nil
}

// checkReports fails the run for every incremental report that is not
// the reference, byte for byte.
func checkReports(r *result, ref [32]byte, got [][32]byte) {
	for _, g := range got {
		if g != ref {
			r.fail("an append or warm report (digest %x) differs from the cold report of the same archive (%x)", g[:8], ref[:8])
		}
	}
}

// serve is the operator's side of a round, on a fresh copy of the
// seeded store and of A-base: a warm boot (`boot_s`), one traffic
// window per mix, and, with a one-connection probe loop running, the
// reload that ingests A-grown1 (`reload_s`).
func (rn *runner) serve(round int) (err error) {
	e, st, r := rn.e, rn.st, rn.r
	dirs, err := st.daemonDirs(round)
	if err != nil {
		return err
	}
	client := newClient()
	defer client.CloseIdleConnections()
	before, err := storeState(dirs.store)
	if err != nil {
		return err
	}
	r.attempted++
	d, err := e.startDaemon(client, dirs.args...)
	if err != nil {
		return err
	}
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	rn.sample("boot_s", d.bootS)
	if d.gen != st.gens[0] {
		r.fail("the daemon serves generation %.12s, want %.12s", d.gen, st.gens[0])
	}
	// A boot that rebuilt cold (a store the daemon could not adopt) takes
	// twice as long and five times the memory; it would have written a
	// generation.
	after, err := storeState(dirs.store)
	if err != nil {
		return err
	}
	if after != before {
		r.fail("the boot was not warm: store went from [%s] to [%s]\n%s", before, after, d.logs)
	}

	for i, tm := range trafficMixes {
		if tm.mix[kFigures] > 0 {
			if err := rn.firstFigures(client, d.base); err != nil {
				return err
			}
		}
		res, err := runLoad(e.ctx, loadConfig{
			base: d.base, ring: st.rings[i], clients: clients(),
			warmup: loadWarmup, window: rn.window,
			gens: st.gens[:1], want: st.wants[i],
		})
		if err != nil {
			return err
		}
		r.attempted += res.attempted
		if res.failed > 0 {
			r.failN(res.failed, "%s mix: %d of %d requests failed; first: %v", tm.name, res.failed, res.attempted, res.firstErr)
		}
		rn.loads[i] = append(rn.loads[i], res)
	}

	pr, err := startProbe(e.ctx, d.base, st.rings[0].paths[0], st.gens[:])
	if err != nil {
		return err
	}
	defer pr.stop()
	r.attempted++
	if err := growLive(dirs.live, st.in.grown); err != nil {
		return err
	}
	t0 := time.Now()
	if err := d.reload(); err != nil {
		return err
	}
	at, err := pr.waitGen(e.ctx, st.gens[1], 30*time.Second)
	switch {
	case err == nil:
		rn.sample("reload_s", at.Sub(t0).Seconds())
	case e.ctx.Err() != nil:
		return e.ctx.Err()
	default:
		r.fail("reload: %v\n%s", err, d.logs)
	}
	pr.stop()
	r.attempted += pr.n
	if pr.failed > 0 {
		r.failN(pr.failed, "%d of %d probe requests failed during the reload; first: %v", pr.failed, pr.n, pr.firstErr)
	}
	rn.sample("reload_max_stall_us", float64(pr.maxLat)/1e3)

	rss, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	rn.sample("daemon_rss_mb", rss)
	err = d.stop()
	d = nil
	return err
}

// firstFigures asks the daemon for each figure day once, on one
// connection: the first request for a day on a generation pays for two
// whole-index sweeps, which the generation then keeps. The median of
// those first requests is the round's figures_first_ms sample;
// afterwards the days are warm, as they are for every later request
// until the next reload.
func (rn *runner) firstFigures(client *http.Client, base string) error {
	var buf bytes.Buffer
	lats := make([]float64, 0, len(rn.st.figDays))
	for _, day := range rn.st.figDays {
		u, err := url.Parse(base + figurePath(day))
		if err != nil {
			return err
		}
		rn.r.attempted++
		t0 := time.Now()
		resp, err := fetch(client, u, &buf)
		d := time.Since(t0)
		if err == nil {
			err = checkResponse(resp, rn.st.gens[:1], nil, nil)
		}
		if err != nil {
			rn.r.fail("first GET %s: %v", u.Path, err)
			continue
		}
		lats = append(lats, float64(d)/1e6)
	}
	rn.sample("figures_first_ms", median(lats))
	return nil
}

// report turns the rounds' samples into the run's metrics.
func (rn *runner) report() error {
	r := rn.r
	if rn.ref != nil {
		checkReports(r, *rn.ref, rn.incr)
	}
	for _, m := range []struct{ name, unit string }{
		{"cold_s", "s"}, {"append_s", "s"}, {"warm_s", "s"}, {"boot_s", "s"}, {"reload_s", "s"}, {"figures_first_ms", "ms"},
	} {
		r.metrics[m.name] = metric{fastest(rn.samples[m.name]), m.unit, len(rn.samples[m.name])}
	}
	for _, name := range []string{"cli_rss_mb", "daemon_rss_mb"} {
		r.metrics[name] = metric{highest(rn.samples[name]), "MB", len(rn.samples[name])}
	}
	r.info["reload_max_stall_us"] = metric{highest(rn.samples["reload_max_stall_us"]), "us", len(rn.samples["reload_max_stall_us"])}
	for i, tm := range trafficMixes {
		sum, err := summarize(rn.loads[i])
		if err != nil {
			return fmt.Errorf("%s mix: %w", tm.name, err)
		}
		r.metrics[tm.name+"_qps"] = metric{sum.qps, "1/s", sum.n}
		r.metrics[tm.name+"_p50_us"] = metric{sum.p50us, "us", sum.n}
		r.metrics[tm.name+"_p99_us"] = metric{sum.p99us, "us", sum.n}
		r.info[fmt.Sprintf("%s_window_p%g_us", tm.name, sum.topQ*100)] = metric{sum.topUs, "us", sum.topN}
		r.info[tm.name+"_max_us"] = metric{sum.maxUs, "us", 1}
	}
	return nil
}

// runWorkload runs one workload end to end with tracing off.
func runWorkload(ctx context.Context, e *env, w workload, seed int64, window time.Duration) (*result, error) {
	r := &result{workload: w.name, seed: seed, metrics: map[string]metric{}, info: map[string]metric{}}
	t0 := time.Now()
	st, err := setup(e, w, seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	st.release()
	r.metrics["setup_s"] = metric{time.Since(t0).Seconds(), "s", 1}
	r.info["build_s"] = metric{e.buildS, "s", 1}
	rn := &runner{
		e: e, st: st, r: r, window: window,
		samples: map[string][]float64{}, loads: make([][]loadResult, len(trafficMixes)),
		saved: filepath.Join(e.tmp, "cache-saved"),
	}
	for round := 0; round < rounds; round++ {
		if err := rn.batch(round); err != nil {
			return nil, err
		}
		if err := rn.serve(round); err != nil {
			return nil, err
		}
	}
	if err := rn.report(); err != nil {
		return nil, err
	}
	return r, nil
}

// fastest and highest pick a run's least-disturbed sample. Interference
// on a shared host only ever slows a sample down, in spells of ten
// seconds to a minute or more, so of a few samples twenty seconds apart
// the best one is the steadiest estimate of what the program costs:
// over ten seeds boot_s spread 20 % as the fastest of three boots and
// 33 % as their median (README.md has the rest).
func fastest(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	return slices.Min(vs)
}

func highest(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	return slices.Max(vs)
}
