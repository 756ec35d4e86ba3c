package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"dropscope"
	"dropscope/internal/analysis"
	"dropscope/internal/archive"
	"dropscope/internal/delta"
	"dropscope/internal/drop"
	"dropscope/internal/irr"
	"dropscope/internal/mrt"
	"dropscope/internal/netx"
	"dropscope/internal/rib"
	"dropscope/internal/ribsnap"
	"dropscope/internal/rirstats"
	"dropscope/internal/rpki"
	"dropscope/internal/sbl"
	"dropscope/internal/serve"
	"dropscope/internal/timex"
)

// The traced pass calls each layer's public functions from here, one at
// a time on one goroutine, with a span around each call. Every metric
// is the median over the repetitions shown as its sample count; calls
// that take seconds are made once, because a traced run has to fit the
// same budget as an untraced one.

// experimentNames is the facade's schedule (schedule.go), in its order:
// pathend reads fig4's case prefix, so fig4 runs first.
var experimentNames = []string{
	"fig1", "fig2", "dealloc", "table1", "sec5", "fig4", "fig5", "fig6", "fig7", "table2",
	"rov", "as0whatif", "maxlength", "pathend", "hijackers", "moas",
}

func runExperiment(name string, p *analysis.Pipeline, r *dropscope.Results) {
	switch name {
	case "fig1":
		r.Fig1 = p.Fig1Classification()
	case "fig2":
		r.Fig2 = p.Fig2Visibility()
	case "dealloc":
		r.Dealloc = p.DeallocAnalysis()
	case "table1":
		r.Table1 = p.Table1RPKIUptake()
	case "sec5":
		r.Sec5 = p.Sec5IRR()
	case "fig4":
		r.Fig4 = p.Fig4RPKIValidHijacks()
	case "fig5":
		r.Fig5 = p.Fig5ROAStatus()
	case "fig6":
		r.Fig6 = p.Fig6UnallocatedTimeline()
	case "fig7":
		r.Fig7 = p.Fig7FreePools()
	case "table2":
		r.Table2 = p.Table2SBLBreakdown()
	case "rov":
		r.ROV = p.ROVCounterfactual()
	case "as0whatif":
		r.AS0WhatIf = p.AS0WhatIf()
	case "maxlength":
		r.MaxLength = p.MaxLengthAnalysis()
	case "pathend":
		r.PathEnd = p.PathEndWithCase(r.Fig4.CasePrefix)
	case "hijackers":
		r.Hijackers = p.SerialHijackers(3, 0.5, 365)
	case "moas":
		r.MOAS = p.MOASSweep()
	}
}

// layerPass carries the traced pass's state.
type layerPass struct {
	t   *tracer
	r   *result
	in  *inputs
	dir string // scratch under the temp root
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// put records the median of ds in the given unit.
func (lp *layerPass) put(name, unit string, ds []time.Duration) {
	vs := make([]float64, len(ds))
	for i, d := range ds {
		switch unit {
		case "ms":
			vs[i] = ms(d)
		case "us":
			vs[i] = us(d)
		default:
			vs[i] = float64(d)
		}
	}
	lp.r.metrics[name] = metric{median(vs), unit, len(vs)}
}

func (lp *layerPass) count(name, unit string, v float64) {
	lp.r.metrics[name] = metric{v, unit, 1}
}

// repeat times fn reps times, each as a span in a run of its own.
func (lp *layerPass) repeat(span string, reps int, fn func() error) ([]time.Duration, error) {
	ds := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		lp.t.nextRun()
		d, err := lp.t.do(span, fn)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", span, err)
		}
		ds = append(ds, d)
	}
	return ds, nil
}

// perOp times n calls of fn as one span and returns the cost of one.
// For calls that take well under a microsecond a span per call would
// measure the clock.
func (lp *layerPass) perOp(span string, n int, fn func(i int)) (time.Duration, float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	lp.t.nextRun()
	id := lp.t.begin(span)
	for i := 0; i < n; i++ {
		fn(i)
	}
	d := lp.t.end(id)
	runtime.ReadMemStats(&after)
	return d / time.Duration(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// parseTree opens every regular file under dir and hands it to parse;
// it returns the bytes parsed.
func parseTree(dir string, parse func(io.Reader) error) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		st, err := f.Stat()
		if err != nil {
			return err
		}
		total += st.Size()
		if err := parse(f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		return nil
	})
	return total, err
}

// textParsers times each text format's parser over the archive's files.
func (lp *layerPass) textParsers() error {
	base := lp.in.base
	parsers := []struct {
		name, sub string
		parse     func(io.Reader) error
	}{
		{"rirstats", "rirstats", func(r io.Reader) error { _, err := rirstats.ParseFile(r); return err }},
		{"rpki", "rpki", func(r io.Reader) error { _, err := rpki.ParseSnapshotCSV(r); return err }},
		{"irr", "irr", func(r io.Reader) error {
			raw, err := io.ReadAll(r)
			if err != nil {
				return err
			}
			_, err = irr.ParseJournal(raw)
			return err
		}},
		{"drop", "drop", func(r io.Reader) error { _, err := drop.Parse(r); return err }},
		{"sbl", "sbl", func(r io.Reader) error { return sbl.ParseStore(r, sbl.NewDB()) }},
	}
	for _, p := range parsers {
		reps := 3
		if p.name == "rirstats" {
			reps = 1 // 68 MB: about a second
		}
		var bytesParsed int64
		ds, err := lp.repeat(p.name+".parse", reps, func() error {
			n, err := parseTree(filepath.Join(base, p.sub), p.parse)
			bytesParsed = n
			return err
		})
		if err != nil {
			return err
		}
		lp.put(p.name+".parse_ms", "ms", ds)
		lp.count(p.name+".parse_mb", "MB", float64(bytesParsed)/1e6)
	}
	return nil
}

// countingFS is the ribsnap.FS the snapshot writer is run through, to
// count what it writes and how often it waits for the disk.
type countingFS struct {
	bytes int64
	syncs int
}

type countingFile struct {
	ribsnap.File
	fs *countingFS
}

func (f countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.bytes += int64(n)
	return n, err
}

func (f countingFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.fs.bytes += int64(n)
	return n, err
}

func (f countingFile) Sync() error { f.fs.syncs++; return f.File.Sync() }

func (c *countingFS) CreateTemp(dir, pattern string) (ribsnap.File, error) {
	f, err := ribsnap.OS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return countingFile{f, c}, nil
}
func (c *countingFS) Rename(o, n string) error { return ribsnap.OS.Rename(o, n) }
func (c *countingFS) Remove(n string) error    { return ribsnap.OS.Remove(n) }
func (c *countingFS) SyncDir(d string) error   { c.syncs++; return ribsnap.OS.SyncDir(d) }

// coldParts is what the decomposed cold build leaves for later steps.
type coldParts struct {
	ix      *rib.Index
	frozen  *rib.Frozen
	digest  [32]byte
	cursors []ribsnap.ArchiveCursor
	counts  []ribsnap.CollectorCount
	lineage *ribsnap.Lineage
	snap    string // snapshot file written
	pipe    *analysis.Pipeline
	report  [32]byte
	wall    time.Duration
	leaves  time.Duration // sum of the layer spans under the root
}

// decomposedCold rebuilds what the facade's cold load does — digest,
// text parse, MRT decode, RIB reassembly, freeze, persist, pipeline,
// sixteen experiments, render — as one call per layer under a root
// span. Its report must equal the facade's byte for byte, which is the
// check that the layers were put together the way the program does it.
func (lp *layerPass) decomposedCold() (*coldParts, error) {
	in, t := lp.in, lp.t
	mrtDir := filepath.Join(in.base, "mrt")
	cp := &coldParts{snap: filepath.Join(lp.dir, "decomposed", "index.ribsnap")}
	if err := os.MkdirAll(filepath.Dir(cp.snap), 0o755); err != nil {
		return nil, err
	}
	t.nextRun()
	root := t.begin("dropscope.cold")
	leaf := func(name string, fn func() error) (time.Duration, error) {
		d, err := t.do(name, fn)
		cp.leaves += d
		if err != nil {
			err = fmt.Errorf("%s: %w", name, err)
		}
		return d, err
	}

	d, err := leaf("ribsnap.digest", func() (err error) {
		cp.cursors, err = ribsnap.ArchiveCursors(mrtDir)
		cp.digest = ribsnap.DigestCursors(cp.cursors)
		return err
	})
	if err != nil {
		return nil, err
	}
	digests := []time.Duration{d}

	var bundle *archive.Bundle
	d, err = leaf("archive.text_load", func() (err error) {
		bundle, err = archive.LoadWithOptions(in.base, archive.LoadOptions{SkipMRT: true})
		return err
	})
	if err != nil {
		return nil, err
	}
	lp.put("archive.text_load_ms", "ms", []time.Duration{d})

	names := make([]string, len(cp.cursors))
	for i, c := range cp.cursors {
		names[i] = c.Collector
	}
	slices.Sort(names)
	streams := make(map[string][]mrt.Record, len(names))
	var decode, load time.Duration
	var records int
	for _, name := range names {
		d, err := leaf("mrt.decode", func() error {
			raw, err := os.ReadFile(filepath.Join(mrtDir, name+".mrt"))
			if err != nil {
				return err
			}
			recs, err := mrt.ReadAll(bytes.NewReader(raw))
			streams[name] = recs
			return err
		})
		if err != nil {
			return nil, err
		}
		decode += d
		records += len(streams[name])
	}
	lp.put("mrt.decode_ms", "ms", []time.Duration{decode})
	lp.count("mrt.records", "count", float64(records))
	lp.count("mrt.mb", "MB", float64(in.mrtBytes)/1e6)

	cp.ix = rib.NewIndex()
	for _, name := range names {
		d, err := leaf("rib.load", func() error { return cp.ix.Load(name, streams[name]) })
		if err != nil {
			return nil, err
		}
		load += d
		cp.counts = append(cp.counts, ribsnap.CollectorCount{Collector: name, Records: uint64(len(streams[name]))})
	}
	streams = nil
	lp.put("rib.load_ms", "ms", []time.Duration{load})

	d, err = leaf("rib.freeze", func() (err error) {
		cp.ix.Close(in.window.Last)
		cp.frozen, err = cp.ix.Frozen()
		return err
	})
	if err != nil {
		return nil, err
	}
	lp.put("rib.freeze_ms", "ms", []time.Duration{d})
	lp.count("rib.spans", "count", float64(len(cp.frozen.Col)))
	lp.count("rib.prefixes", "count", float64(len(cp.frozen.Prefixes)))

	cp.lineage = &ribsnap.Lineage{MaxDay: cp.frozen.MaxDay, Cursors: cp.cursors}
	cfs := &countingFS{}
	d, err = leaf("ribsnap.write", func() error {
		return ribsnap.WriteLineageFS(cfs, cp.snap, cp.frozen, in.window, cp.digest, cp.counts, cp.lineage)
	})
	if err != nil {
		return nil, err
	}
	writes := []time.Duration{d}
	lp.count("ribsnap.write_mb", "MB", float64(cfs.bytes)/1e6)
	lp.count("ribsnap.write_syncs", "count", float64(cfs.syncs))

	d, err = leaf("analysis.new", func() (err error) {
		cp.pipe, err = analysis.NewWithOptions(analysis.Dataset{
			Window: in.window,
			DROP:   bundle.DROP, SBL: bundle.SBL, IRR: bundle.IRR, RPKI: bundle.RPKI, RIR: bundle.RIR,
		}, analysis.Options{Index: cp.ix})
		return err
	})
	if err != nil {
		return nil, err
	}
	lp.put("analysis.new_ms", "ms", []time.Duration{d})

	var res dropscope.Results
	res.Health = cp.pipe.HealthReport()
	for _, name := range experimentNames {
		d, _ := leaf("analysis.exp."+name, func() error { runExperiment(name, cp.pipe, &res); return nil })
		lp.put("analysis.exp."+name+"_ms", "ms", []time.Duration{d})
	}
	h := sha256.New()
	if _, err := leaf("dropscope.render", func() error { return res.Render(h) }); err != nil {
		return nil, err
	}
	h.Sum(cp.report[:0])
	cp.wall = t.end(root)

	// The cheap layers again, for a median: the same spans, outside the root.
	more, err := lp.repeat("ribsnap.digest", 2, func() error {
		cur, err := ribsnap.ArchiveCursors(mrtDir)
		ribsnap.DigestCursors(cur)
		return err
	})
	if err != nil {
		return nil, err
	}
	lp.put("ribsnap.digest_ms", "ms", append(digests, more...))
	lp.count("ribsnap.digest_mb", "MB", float64(in.mrtBytes)/1e6)
	more, err = lp.repeat("ribsnap.write", 2, func() error {
		return ribsnap.WriteLineageFS(&countingFS{}, cp.snap, cp.frozen, in.window, cp.digest, cp.counts, cp.lineage)
	})
	if err != nil {
		return nil, err
	}
	lp.put("ribsnap.write_ms", "ms", append(writes, more...))
	return cp, nil
}

// facadeRun is what the untraced facade calls left to compare with.
type facadeRun struct {
	report [32]byte
	cold   time.Duration
}

// facade times the program's own entry points, untraced: a cold load,
// then the warm load it made possible. It runs before the decomposition,
// while this process's heap holds as little as it will: the second of
// the two pays the collector for whatever the first left reachable, and
// with the decomposition first the facade read a quarter slower than
// the same layers called one by one.
func (lp *layerPass) facade() (*facadeRun, error) {
	cfg := dropscope.DefaultConfig()
	cfg.Window = lp.in.window
	cache := filepath.Join(lp.dir, "facade-cache")
	render := func(res dropscope.Results) ([32]byte, time.Duration, error) {
		var sum [32]byte
		h := sha256.New()
		t0 := time.Now()
		err := res.Render(h)
		d := time.Since(t0)
		h.Sum(sum[:0])
		return sum, d, err
	}

	// Serial, as the decomposition is, so the two walls are comparable.
	t0 := time.Now()
	study, err := dropscope.LoadStudyWithOptions(lp.in.base, cfg, dropscope.IngestOptions{Strict: true, Workers: 1, SnapshotDir: cache})
	if err != nil {
		return nil, fmt.Errorf("facade cold load: %w", err)
	}
	t1 := time.Now()
	res := study.ResultsSerial()
	serial := time.Since(t1)
	sum, renderD, err := render(res)
	cold := time.Since(t0)
	study.Close()
	if err != nil {
		return nil, err
	}
	fr := &facadeRun{report: sum, cold: cold}
	lp.put("dropscope.facade_cold_ms", "ms", []time.Duration{cold})
	lp.put("dropscope.results_serial_ms", "ms", []time.Duration{serial})
	lp.put("dropscope.render_ms", "ms", []time.Duration{renderD})

	t0 = time.Now()
	study, err = dropscope.LoadStudyWithOptions(lp.in.base, cfg, dropscope.IngestOptions{Strict: true, SnapshotDir: cache})
	if err != nil {
		return nil, fmt.Errorf("facade warm load: %w", err)
	}
	t1 = time.Now()
	res = study.Results()
	parallel := time.Since(t1)
	sum, _, err = render(res)
	warm := time.Since(t0)
	study.Close()
	if err != nil {
		return nil, err
	}
	lp.r.attempted++
	if sum != fr.report {
		lp.r.fail("the facade's warm report (%x) differs from its cold one (%x)", sum[:8], fr.report[:8])
	}
	lp.put("dropscope.facade_warm_ms", "ms", []time.Duration{warm})
	lp.put("dropscope.results_parallel_ms", "ms", []time.Duration{parallel})
	return fr, nil
}

// compare sets the decomposition against the facade: the same report,
// and how much of the facade's wall the layer spans account for.
func (lp *layerPass) compare(fr *facadeRun, cp *coldParts) {
	lp.r.attempted++
	if fr.report != cp.report {
		lp.r.fail("the report of the layers composed from outside (%x) differs from the facade's (%x)", cp.report[:8], fr.report[:8])
	}
	lp.count("dropscope.unattributed_ms", "ms", ms(fr.cold-cp.leaves))
	lp.count("dropscope.trace_gap_pct", "%", 100*float64(cp.wall-fr.cold)/float64(fr.cold))
}

// lookups times the index's point and sweep queries over keys drawn
// from the request ring's own generator.
func (lp *layerPass) lookups(cp *coldParts) error {
	prefixes := cp.ix.Prefixes()
	days := lp.in.window.Days()
	state := uint64(lp.in.seed)
	const nkeys = 4096
	ps := make([]netx.Prefix, nkeys)
	ds := make([]timex.Day, nkeys)
	for i := range ps {
		ps[i] = prefixes[splitmix64(&state)%uint64(len(prefixes))]
		ds[i] = lp.in.window.First + timex.Day(splitmix64(&state)%uint64(days))
	}
	const n = 400000
	per, _ := lp.perOp("rib.point.visible_count", n, func(i int) { sink += cp.ix.VisibleCount(ps[i%nkeys], ds[i%nkeys]) })
	lp.r.metrics["rib.point.visible_count_ns"] = metric{float64(per), "ns", n}
	per, _ = lp.perOp("rib.point.origin_at", n, func(i int) {
		if _, ok := cp.ix.OriginAt(ps[i%nkeys], ds[i%nkeys]); ok {
			sink++
		}
	})
	lp.r.metrics["rib.point.origin_at_ns"] = metric{float64(per), "ns", n}
	per, _ = lp.perOp("rib.timeline", nkeys, func(i int) { sink += len(cp.ix.OriginTimeline(ps[i])) })
	lp.r.metrics["rib.timeline_us"] = metric{us(per), "us", nkeys}

	var shards []*rib.Frozen
	cut, err := lp.repeat("rib.shard_cut", 3, func() (err error) {
		shards, err = cp.ix.FrozenShards(4, 1)
		return err
	})
	if err != nil {
		return err
	}
	lp.put("rib.shard_cut_ms", "ms", cut)
	sh, err := rib.ShardedFromFrozen(shards, 1)
	if err != nil {
		return err
	}
	per, _ = lp.perOp("rib.sharded.point", n, func(i int) { sink += sh.VisibleCount(ps[i%nkeys], ds[i%nkeys]) })
	lp.r.metrics["rib.sharded.point_ns"] = metric{float64(per), "ns", n}
	const sweeps = 16
	per, _ = lp.perOp("rib.sharded.fanout", sweeps, func(i int) {
		if sh.RoutedSpace(ds[i], 1) != nil {
			sink++
		}
	})
	lp.r.metrics["rib.sharded.fanout_us"] = metric{us(per), "us", sweeps}

	// One shard mappable at a time and a round-robin over four: every
	// acquire finds its shard evicted and maps it again.
	store, err := ribsnap.OpenStore(filepath.Join(lp.dir, "shard-store"), ribsnap.StoreOptions{})
	if err != nil {
		return err
	}
	if err := store.WriteShardsLineage(shards, lp.in.window, cp.digest, cp.counts, 1, cp.lineage); err != nil {
		return err
	}
	set, err := store.LoadShards(cp.digest, 1)
	if err != nil {
		return err
	}
	defer set.Close()
	i := 0
	faults, err := lp.repeat("ribsnap.shard_fault", 24, func() error {
		_, rel, err := set.AcquireIndex(i % set.NumShards())
		i++
		if err == nil {
			rel.Release()
		}
		return err
	})
	if err != nil {
		return err
	}
	if got := set.Faults(); got != int64(len(faults)) {
		return fmt.Errorf("ribsnap.shard_fault: %d acquires caused %d faults; every one should have", len(faults), got)
	}
	lp.put("ribsnap.shard_fault_us", "us", faults)

	loads, err := lp.repeat("ribsnap.load", 5, func() error {
		s, err := ribsnap.Load(cp.snap, cp.digest)
		if err == nil {
			err = s.Close()
		}
		return err
	})
	if err != nil {
		return err
	}
	lp.put("ribsnap.load_ms", "ms", loads)

	var suffix uint64
	builds, err := lp.repeat("delta.build", 2, func() error {
		res, err := delta.Build(filepath.Join(lp.in.grown, "mrt"), cp.frozen, cp.lineage, cp.counts,
			lp.in.window, lp.in.window, cp.digest)
		if err != nil {
			return err
		}
		suffix = 0
		for j, c := range res.Counts {
			suffix += c.Records - cp.counts[j].Records
		}
		return nil
	})
	if err != nil {
		return err
	}
	lp.put("delta.build_ms", "ms", builds)
	lp.count("delta.suffix_records", "count", float64(suffix))

	fig, _ := lp.perOp("analysis.figure_day", sweeps, func(i int) { sink += cp.pipe.FigureDay(ds[i]).DROPListed })
	lp.r.metrics["analysis.figure_day_us"] = metric{us(fig), "us", sweeps}
	return nil
}

// sink keeps the timed lookups' results live, so the compiler cannot
// drop the calls.
var sink int

// discard is a reusable http.ResponseWriter that counts bytes.
type discard struct {
	h    http.Header
	n    int
	code int
}

func (d *discard) Header() http.Header { return d.h }
func (d *discard) WriteHeader(c int)   { d.code = c }
func (d *discard) Write(p []byte) (int, error) {
	d.n += len(p)
	return len(p), nil
}

// handlers times the daemon's request path in process, from the inside
// out: each endpoint's handler, the middleware around it, then a real
// HTTP server on loopback with one client.
func (lp *layerPass) handlers(st *state) (loopbackP50 time.Duration, err error) {
	srv := serve.New(st.gen)
	mixedRing := st.rings[len(st.rings)-1]
	byKind := make([][]*http.Request, numKinds)
	for i, p := range mixedRing.paths {
		k := mixedRing.kinds[i]
		if len(byKind[k]) >= 256 {
			continue
		}
		u, err := url.Parse(p)
		if err != nil {
			return 0, err
		}
		byKind[k] = append(byKind[k], &http.Request{Method: http.MethodGet, URL: u})
	}
	w := &discard{h: make(http.Header)}
	for _, req := range byKind[kFigures] {
		srv.ServeHTTP(w, req) // first touch of a day sweeps the index; the handler's own cost is what follows
	}
	for k, reqs := range byKind {
		n := 100000
		if k >= kOrigins {
			n = 512 // allocating endpoints: tens of microseconds to milliseconds each
		}
		if k == kMetrics {
			n = 64
		}
		w.n = 0
		per, allocs := lp.perOp("serve.handler."+kindNames[k], n, func(i int) {
			w.code = http.StatusOK
			srv.ServeHTTP(w, reqs[i%len(reqs)])
		})
		if w.code != http.StatusOK {
			return 0, fmt.Errorf("serve.handler.%s: status %d", kindNames[k], w.code)
		}
		lp.r.metrics["serve.handler."+kindNames[k]+"_ns"] = metric{float64(per), "ns", n}
		lp.r.metrics["serve.handler."+kindNames[k]+"_allocs"] = metric{allocs, "count", n}
		if k == kFigures || k == kMetrics {
			lp.count("serve.handler."+kindNames[k]+"_bytes", "count", float64(w.n)/float64(n))
		}
	}

	mw := serve.Wrap(srv, serve.MiddlewareConfig{})
	vis := byKind[kVisibility]
	const n = 100000
	bare, _ := lp.perOp("serve.handler.visibility", n, func(i int) { srv.ServeHTTP(w, vis[i%len(vis)]) })
	wrapped, _ := lp.perOp("serve.wrap", n, func(i int) { mw.ServeHTTP(w, vis[i%len(vis)]) })
	lp.r.metrics["serve.wrap_ns"] = metric{float64(wrapped - bare), "ns", n}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	hs := serve.NewHTTPServer(mw, serve.HTTPConfig{})
	done := make(chan struct{})
	go func() { hs.Serve(ln); close(done) }()
	defer func() { hs.Close(); <-done }()
	lp.t.nextRun()
	id := lp.t.begin("serve.loopback")
	res, err := runLoad(context.Background(), loadConfig{
		base: "http://" + ln.Addr().String(), ring: st.rings[0], clients: 1,
		warmup: 200 * time.Millisecond, window: time.Second,
		gens: st.gens[:1], want: st.wants[0],
	})
	lp.t.end(id)
	if err != nil {
		return 0, err
	}
	lp.r.attempted += res.attempted
	if res.failed > 0 {
		lp.r.failN(res.failed, "loopback: %d of %d requests failed; first: %v", res.failed, res.attempted, res.firstErr)
	}
	lats := make([]int64, len(res.samples))
	for i, s := range res.samples {
		lats[i] = s.lat
	}
	slices.Sort(lats)
	loopbackP50 = time.Duration(quantile(lats, 0.5))
	lp.r.metrics["serve.loopback_us"] = metric{us(loopbackP50), "us", len(lats)}
	return loopbackP50, nil
}

// daemonCounters is the part of /metrics the traced run reads.
type daemonCounters struct {
	RequestsTotal  float64 `json:"requests_total"`
	Shed           float64 `json:"shed_total"`
	ResidentShards float64 `json:"resident_shards"`
	Faults         float64 `json:"shard_faults_total"`
	Evictions      float64 `json:"shard_evictions_total"`
}

func scrape(client *http.Client, base string) (daemonCounters, error) {
	var c daemonCounters
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return c, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return c, json.NewDecoder(resp.Body).Decode(&c)
}

// daemonLayers boots the real daemon and reads its own counters either
// side of a point-lookup window, then watches one reload.
func (lp *layerPass) daemonLayers(e *env, st *state, window time.Duration, loopbackP50 time.Duration) error {
	dirs, err := st.daemonDirs(0)
	if err != nil {
		return err
	}
	client := newClient()
	defer client.CloseIdleConnections()
	d, err := e.startDaemon(client, dirs.args...)
	if err != nil {
		return err
	}
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	before, err := scrape(client, d.base)
	if err != nil {
		return err
	}
	res, err := runLoad(e.ctx, loadConfig{
		base: d.base, ring: st.rings[0], clients: clients(),
		warmup: loadWarmup, window: window,
		gens: st.gens[:1], want: st.wants[0],
	})
	if err != nil {
		return err
	}
	after, err := scrape(client, d.base)
	if err != nil {
		return err
	}
	lp.r.attempted += res.attempted
	if res.failed > 0 {
		lp.r.failN(res.failed, "%d of %d requests failed; first: %v", res.failed, res.attempted, res.firstErr)
	}
	sum, err := summarize([]loadResult{res})
	if err != nil {
		return err
	}
	kreq := (after.RequestsTotal - before.RequestsTotal) / 1000
	lp.count("ribsnap.shard_faults_per_kreq", "1/kreq", (after.Faults-before.Faults)/kreq)
	lp.count("ribsnap.shard_evictions_per_kreq", "1/kreq", (after.Evictions-before.Evictions)/kreq)
	lp.count("ribsnap.resident_shards", "count", after.ResidentShards)
	lp.count("serve.shed_total", "count", after.Shed)
	lp.r.metrics["serve.xproc_us"] = metric{sum.p50us - us(loopbackP50), "us", sum.n}

	pr, err := startProbe(e.ctx, d.base, st.rings[0].paths[0], st.gens[:])
	if err != nil {
		return err
	}
	defer pr.stop()
	lp.r.attempted++
	if err := growLive(dirs.live, st.in.grown); err != nil {
		return err
	}
	if err := d.reload(); err != nil {
		return err
	}
	if _, err := pr.waitGen(e.ctx, st.gens[1], 30*time.Second); err != nil {
		if e.ctx.Err() != nil {
			return e.ctx.Err()
		}
		lp.r.fail("reload: %v\n%s", err, d.logs)
	}
	pr.stop()
	lp.r.attempted += pr.n
	if pr.failed > 0 {
		lp.r.failN(pr.failed, "%d of %d probe requests failed during the reload; first: %v", pr.failed, pr.n, pr.firstErr)
	}
	lp.r.metrics["serve.reload.max_stall_us"] = metric{us(pr.maxLat), "us", pr.n}
	err = d.stop()
	d = nil
	return err
}

// serveLoads times the daemon's loader warm and on the delta path, on
// a copy of the seeded store so the daemon's own stays at A-base.
func (lp *layerPass) serveLoads(st *state, w workload) error {
	storeDir := filepath.Join(lp.dir, "load-store")
	if err := copyTree(st.seedStore, storeDir); err != nil {
		return err
	}
	store, err := ribsnap.OpenStore(storeDir, ribsnap.StoreOptions{})
	if err != nil {
		return err
	}
	opts := serve.LoadOptions{Window: lp.in.window, Store: store, Shards: w.shards, Delta: true}
	check := func(dir, want string, wantDelta bool) func() error {
		return func() error {
			g, err := serve.Load(dir, opts)
			if err != nil {
				return err
			}
			if g.DigestHex() != want {
				return fmt.Errorf("loaded generation %.12s, want %.12s", g.DigestHex(), want)
			}
			if g.DeltaBuilt() != wantDelta {
				return fmt.Errorf("delta-built = %v, want %v", g.DeltaBuilt(), wantDelta)
			}
			return nil
		}
	}
	warm, err := lp.repeat("serve.load_warm", 2, check(lp.in.base, st.gens[0], false))
	if err != nil {
		return err
	}
	lp.put("serve.load_warm_ms", "ms", warm)
	dl, err := lp.repeat("serve.load_delta", 1, check(lp.in.grown, st.gens[1], true))
	if err != nil {
		return err
	}
	lp.put("serve.load_delta_ms", "ms", dl)
	return nil
}

// runTraced is -trace 1 for one workload.
func runTraced(ctx context.Context, e *env, w workload, seed int64, window time.Duration) (*result, error) {
	r := &result{workload: w.name, seed: seed, metrics: map[string]metric{}, info: map[string]metric{}}
	st, err := setup(e, w, seed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	dir, err := e.dir("layers-" + w.name)
	if err != nil {
		return nil, err
	}
	lp := &layerPass{t: newTracer(), r: r, in: st.in, dir: dir}
	defer func() {
		if path, werr := lp.t.write(e.benchDir, e.fp); werr != nil {
			fmt.Fprintln(os.Stderr, "benchmark: writing the trace:", werr)
		} else {
			fmt.Printf("%d spans written to %s\n", len(lp.t.spans), path)
		}
	}()

	fr, err := lp.facade()
	if err != nil {
		return nil, err
	}
	cp, err := lp.decomposedCold()
	if err != nil {
		return nil, err
	}
	lp.compare(fr, cp)
	if err := lp.textParsers(); err != nil {
		return nil, err
	}
	if err := lp.lookups(cp); err != nil {
		return nil, err
	}
	if err := lp.serveLoads(st, w); err != nil {
		return nil, err
	}
	loopback, err := lp.handlers(st)
	if err != nil {
		return nil, err
	}
	st.release()
	cp = nil
	if err := lp.daemonLayers(e, st, window, loopback); err != nil {
		return nil, err
	}
	selfs := selfTimes(lp.t.spans)
	for i, s := range lp.t.spans {
		if s.Name == "dropscope.cold" {
			r.info["dropscope.cold_self_ms"] = metric{ms(selfs[i]), "ms", 1}
		}
	}
	return r, nil
}
