package dropscope

// The benchmark harness: one benchmark per table and figure in the
// paper's evaluation, each regenerating that experiment's rows/series
// from the archives, plus ablation benches for the design choices
// DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// The world is generated once per process and shared; the benchmarks
// measure the analysis computations, which is what a user re-runs while
// iterating on data.

import (
	"bytes"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"dropscope/internal/analysis"
	"dropscope/internal/bgp"
	"dropscope/internal/delta"
	"dropscope/internal/mrt"
	"dropscope/internal/netx"
	"dropscope/internal/rib"
	"dropscope/internal/ribsnap"
	"dropscope/internal/rtr"
	"dropscope/internal/sbl"
	"dropscope/internal/scenario"
	"dropscope/internal/timex"
)

var (
	benchOnce  sync.Once
	benchStudy *Study
)

func benchPipeline(b *testing.B) *analysis.Pipeline {
	b.Helper()
	benchOnce.Do(func() {
		cfg := DefaultConfig()
		cfg.Scale = 256 // bench the analysis, not world generation
		s, err := NewStudy(cfg)
		if err != nil {
			panic(err)
		}
		benchStudy = s
	})
	return benchStudy.Pipeline
}

// BenchmarkFig1Classification regenerates Figure 1: the category and
// address-space breakdown of all 712 DROP listings.
func BenchmarkFig1Classification(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := p.Fig1Classification()
		if f.TotalPrefixes != 712 {
			b.Fatal("wrong population")
		}
	}
}

// BenchmarkFig2Visibility regenerates Figure 2: per-listing visibility
// CDFs at four day offsets, withdrawal rates, and filtering-peer
// detection across every (peer, listing) pair.
func BenchmarkFig2Visibility(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := p.Fig2Visibility()
		if len(f.FilteringPeers) == 0 {
			b.Fatal("no filtering peers")
		}
	}
}

// BenchmarkTable1RPKIUptake regenerates Table 1: per-RIR signing rates of
// the never/removed/present populations plus the §4.2 ASN breakdown.
func BenchmarkTable1RPKIUptake(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t1 := p.Table1RPKIUptake()
		if _, removed, _ := t1.Overall(); removed.Total == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig3IRRTiming regenerates Figure 3 and the §5 aggregates: the
// route-object journal correlation for every listing.
func BenchmarkFig3IRRTiming(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := p.Sec5IRR()
		if s.WithHijackerASNObject == 0 {
			b.Fatal("no hijacker objects")
		}
	}
}

// BenchmarkSec5IRREffectiveness is the §5-specific alias bench (same
// computation as Fig 3; kept separate so per-experiment timings appear
// in the harness output).
func BenchmarkSec5IRREffectiveness(b *testing.B) {
	BenchmarkFig3IRRTiming(b)
}

// BenchmarkFig4CaseStudy regenerates the §6.1 case study: pre-signed
// hijack detection, ROA-control inference, and sibling discovery.
func BenchmarkFig4CaseStudy(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := p.Fig4RPKIValidHijacks()
		if len(f.PreSigned) == 0 {
			b.Fatal("no pre-signed hijacks")
		}
	}
}

// BenchmarkFig5ROAStatus regenerates Figure 5: the monthly sweep
// classifying signed and allocated space by routing status.
func BenchmarkFig5ROAStatus(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := p.Fig5ROAStatus()
		if len(f.Samples) == 0 {
			b.Fatal("no samples")
		}
	}
}

// BenchmarkFig6UnallocTimeline regenerates Figure 6: unallocated listing
// events, AS0 policy detection, and the would-be-filtered count.
func BenchmarkFig6UnallocTimeline(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := p.Fig6UnallocatedTimeline()
		if len(f.Events) == 0 {
			b.Fatal("no events")
		}
	}
}

// BenchmarkFig7FreePool regenerates Figure 7: the per-RIR free-pool
// series.
func BenchmarkFig7FreePool(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(p.Fig7FreePools()) == 0 {
			b.Fatal("no samples")
		}
	}
}

// BenchmarkTable2SBLClassify regenerates Table 2 / Appendix A: keyword
// classification of the full SBL corpus.
func BenchmarkTable2SBLClassify(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t2 := p.Table2SBLBreakdown()
		if t2.Records == 0 {
			b.Fatal("no records")
		}
	}
}

// BenchmarkPipelineNew measures pipeline construction — dominated by
// per-collector RIB reassembly — serially and with the bounded
// GOMAXPROCS worker pool. The two paths produce identical pipelines
// (TestParallelNewMatchesSerial); this benchmark tracks what the
// parallelism buys.
func BenchmarkPipelineNew(b *testing.B) {
	ds := benchPipeline(b).Dataset()
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := analysis.NewSerial(ds); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := analysis.New(ds); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWarmStart measures pipeline construction served from a
// persistent index snapshot (internal/ribsnap): per iteration it
// re-digests the MRT archive bytes, loads and verifies the snapshot
// (memory-mapped on linux), and builds the pipeline around the decoded
// index — everything a warm `dropscope -load` does instead of MRT RIB
// reassembly. Its comparator is BenchmarkPipelineNew, the cold path it
// replaces; the committed BENCH_PR5.json pins the ratio (a warm start
// must cost at most 20% of a cold build in ns/op and allocs/op, gated
// by scripts/check.sh warmstart).
func BenchmarkWarmStart(b *testing.B) {
	ds := benchPipeline(b).Dataset()
	dir := b.TempDir()
	if err := benchStudy.WriteArchives(dir); err != nil {
		b.Fatal(err)
	}
	mrtDir := filepath.Join(dir, "mrt")
	digest, err := ribsnap.DigestMRT(mrtDir)
	if err != nil {
		b.Fatal(err)
	}
	frozen, err := benchStudy.Pipeline.Index.(*rib.Index).Frozen()
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, 0, len(ds.MRT))
	for name := range ds.MRT {
		names = append(names, name)
	}
	sort.Strings(names)
	counts := make([]ribsnap.CollectorCount, 0, len(names))
	for _, name := range names {
		counts = append(counts, ribsnap.CollectorCount{
			Collector: name, Records: uint64(len(ds.MRT[name])),
		})
	}
	path := filepath.Join(dir, "ribsnap", "index.ribsnap")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		b.Fatal(err)
	}
	if err := ribsnap.Write(path, frozen, ds.Window, digest, counts); err != nil {
		b.Fatal(err)
	}
	warmDS := ds
	warmDS.MRT = nil
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := ribsnap.DigestMRT(mrtDir)
		if err != nil {
			b.Fatal(err)
		}
		snap, err := ribsnap.Load(path, d)
		if err != nil {
			b.Fatal(err)
		}
		p, err := analysis.NewWithOptions(warmDS, analysis.Options{Index: snap.Index})
		if err != nil {
			b.Fatal(err)
		}
		if len(p.Listings) != 712 {
			b.Fatal("wrong population")
		}
		snap.Close()
	}
}

// BenchmarkIncrementalAppend measures what delta ingest saves when the
// archive grows: the cost of bringing the persisted index snapshot
// current. "cold" is the path it replaces — digest the archive, decode
// every MRT byte, rebuild the index, persist. "append" adopts the
// pre-growth snapshot as a base and decodes only the bytes appended
// since it was written, merging them onto the mapped columns. Each
// append iteration first restores the stale pre-growth snapshot, so
// every iteration pays the full delta cost (archive re-digest, prefix
// re-hash, suffix decode, merge, persist) — never a plain warm start.
// The committed BENCH_PR10.json pins the ratio: an append must cost at
// most 30% of the cold rebuild it replaces in ns/op, gated by
// scripts/check.sh deltaratio.
func BenchmarkIncrementalAppend(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Scale = 512
	s, err := NewStudy(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// The base volume every cold rebuild re-decodes; the append skips it.
	if records, _ := s.AmplifyVolume(32768, 1); records == 0 {
		b.Fatal("AmplifyVolume appended nothing")
	}
	dir := b.TempDir()
	if err := s.WriteArchives(dir); err != nil {
		b.Fatal(err)
	}
	mrtDir := filepath.Join(dir, "mrt")
	window := cfg.Window

	// coldBuild is a from-scratch snapshot refresh over the archive's
	// current bytes: one hash pass for cursors + digest, decode, index,
	// persist with lineage.
	coldBuild := func(path string) error {
		cur, err := ribsnap.ArchiveCursors(mrtDir)
		if err != nil {
			return err
		}
		digest := ribsnap.DigestCursors(cur)
		ents, err := os.ReadDir(mrtDir)
		if err != nil {
			return err
		}
		ix := rib.NewIndex()
		var counts []ribsnap.CollectorCount
		for _, e := range ents {
			name, ok := strings.CutSuffix(e.Name(), ".mrt")
			if !ok {
				continue
			}
			raw, err := os.ReadFile(filepath.Join(mrtDir, e.Name()))
			if err != nil {
				return err
			}
			recs, err := mrt.ReadAll(bytes.NewReader(raw))
			if err != nil {
				return err
			}
			if err := ix.Load(name, recs); err != nil {
				return err
			}
			counts = append(counts, ribsnap.CollectorCount{Collector: name, Records: uint64(len(recs))})
		}
		ix.Close(window.Last)
		frozen, err := ix.Frozen()
		if err != nil {
			return err
		}
		lin := &ribsnap.Lineage{MaxDay: frozen.MaxDay, Cursors: cur}
		return ribsnap.WriteLineage(path, frozen, window, digest, counts, lin)
	}

	snapPath := filepath.Join(dir, "ribsnap", "index.ribsnap")
	if err := os.MkdirAll(filepath.Dir(snapPath), 0o755); err != nil {
		b.Fatal(err)
	}
	if err := coldBuild(snapPath); err != nil {
		b.Fatal(err)
	}
	stale, err := os.ReadFile(snapPath)
	if err != nil {
		b.Fatal(err)
	}
	// The appended growth: a small fraction of the base volume, the
	// "one more day of data arrived" shape delta ingest exists for.
	if records, _ := s.AmplifyVolume(64, 2); records == 0 {
		b.Fatal("AmplifyVolume appended nothing")
	}
	if err := s.WriteArchives(dir); err != nil {
		b.Fatal(err)
	}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := coldBuild(snapPath); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("append", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := os.WriteFile(snapPath, stale, 0o644); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			base, err := ribsnap.LoadAt(snapPath)
			if err != nil {
				b.Fatal(err)
			}
			if base.Lineage == nil {
				b.Fatal("stale snapshot carries no lineage to extend")
			}
			frozen, err := base.Index.Frozen()
			if err != nil {
				b.Fatal(err)
			}
			res, err := delta.Build(mrtDir, frozen, base.Lineage, base.Counts, base.Window, window, base.Digest)
			if err != nil {
				b.Fatal(err)
			}
			err = ribsnap.WriteLineage(snapPath, res.Frozen, window, res.Digest, res.Counts, res.Lineage)
			base.Close()
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkResultsParallel measures the full experiment suite through the
// serial runner and through the dependency-aware fan-out scheduler.
func BenchmarkResultsParallel(b *testing.B) {
	_ = benchPipeline(b)
	s := benchStudy
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := s.ResultsSerial()
			if r.Fig1.TotalPrefixes != 712 {
				b.Fatal("wrong population")
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := s.Results()
			if r.Fig1.TotalPrefixes != 712 {
				b.Fatal("wrong population")
			}
		}
	})
}

// BenchmarkEndToEnd measures the full study: world generation, archive
// emission, RIB reassembly, and every experiment.
func BenchmarkEndToEnd(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Scale = 1024
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		r := s.Results()
		var buf bytes.Buffer
		if err := r.Render(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation benches (design choices from DESIGN.md) -------------------

// BenchmarkAblationTrieVsScan compares the Patricia trie against a linear
// scan for longest-prefix matching, the core join in every analysis.
func BenchmarkAblationTrieVsScan(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	var trie netx.Trie[int]
	var list []netx.Prefix
	for i := 0; i < 4096; i++ {
		p := netx.PrefixFrom(netx.Addr(rng.Uint32()), 8+rng.Intn(17))
		trie.Insert(p, i)
		list = append(list, p)
	}
	queries := make([]netx.Prefix, 1024)
	for i := range queries {
		queries[i] = netx.PrefixFrom(netx.Addr(rng.Uint32()), 24)
	}

	b.Run("trie", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				trie.LongestMatch(q)
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				var best netx.Prefix
				found := false
				for _, p := range list {
					if p.Covers(q) && (!found || p.Bits() > best.Bits()) {
						best, found = p, true
					}
				}
				_ = best
			}
		}
	})
}

// BenchmarkAblationMRTStreaming compares streaming MRT decode against
// slurping the file and decoding from a memory reader (identical bytes).
func BenchmarkAblationMRTStreaming(b *testing.B) {
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	t0 := timex.MustParseDay("2020-01-01")
	for i := 0; i < 2000; i++ {
		rec := &mrt.BGP4MPMessage{
			When:   t0.Time(),
			PeerAS: 64500, LocalAS: 6447,
			PeerAddr: netx.AddrFrom4(10, 0, 0, 1), LocalAddr: netx.AddrFrom4(10, 0, 0, 2),
			Update: &bgp.Update{
				Attrs: bgp.Attrs{Path: bgp.Sequence(64500, bgp.ASN(i))},
				NLRI:  []netx.Prefix{netx.PrefixFrom(netx.AddrFrom4(10, byte(i>>8), byte(i), 0), 24)},
			},
		}
		if err := w.Write(rec); err != nil {
			b.Fatal(err)
		}
	}
	wire := buf.Bytes()
	b.SetBytes(int64(len(wire)))

	b.Run("streaming", func(b *testing.B) {
		b.SetBytes(int64(len(wire)))
		for i := 0; i < b.N; i++ {
			r := mrt.NewReader(bytes.NewReader(wire))
			n := 0
			for {
				_, err := r.Next()
				if err != nil {
					break
				}
				n++
			}
			if n != 2000 {
				b.Fatal("short read")
			}
		}
	})
	b.Run("slurp", func(b *testing.B) {
		b.SetBytes(int64(len(wire)))
		for i := 0; i < b.N; i++ {
			cp := make([]byte, len(wire))
			copy(cp, wire)
			recs, err := mrt.ReadAll(bytes.NewReader(cp))
			if err != nil || len(recs) != 2000 {
				b.Fatal("short read")
			}
		}
	})
}

// BenchmarkAblationRIBDelta compares building visibility state from an
// initial snapshot plus incremental updates against full-table snapshots
// at every change.
func BenchmarkAblationRIBDelta(b *testing.B) {
	t0 := timex.MustParseDay("2020-01-01")
	peers := &mrt.PeerIndexTable{
		When:  t0.Time(),
		Peers: []mrt.Peer{{Addr: netx.AddrFrom4(10, 0, 0, 1), AS: 64500}},
	}
	const prefixes = 500
	const churn = 200

	mkPrefix := func(i int) netx.Prefix {
		return netx.PrefixFrom(netx.AddrFrom4(10, byte(i>>8), byte(i), 0), 24)
	}

	// Delta stream: one RIB dump + announce/withdraw churn.
	var delta []mrt.Record
	delta = append(delta, peers)
	for i := 0; i < prefixes; i++ {
		delta = append(delta, &mrt.RIBPrefix{
			When: t0.Time(), Prefix: mkPrefix(i),
			Entries: []mrt.RIBEntry{{PeerIndex: 0, OriginatedTime: t0.Time(),
				Attrs: bgp.Attrs{Path: bgp.Sequence(64500, 100)}}},
		})
	}
	for c := 0; c < churn; c++ {
		day := t0 + timex.Day(c+1)
		delta = append(delta, &mrt.BGP4MPMessage{
			When: day.Time(), PeerAS: 64500, PeerAddr: netx.AddrFrom4(10, 0, 0, 1),
			Update: &bgp.Update{Withdrawn: []netx.Prefix{mkPrefix(c % prefixes)}},
		})
	}

	// Snapshot stream: a full RIB dump per churn day.
	var snaps []mrt.Record
	snaps = append(snaps, peers)
	for c := 0; c < churn; c++ {
		day := t0 + timex.Day(c+1)
		for i := 0; i < prefixes; i++ {
			snaps = append(snaps, &mrt.RIBPrefix{
				When: day.Time(), Prefix: mkPrefix(i),
				Entries: []mrt.RIBEntry{{PeerIndex: 0, OriginatedTime: t0.Time(),
					Attrs: bgp.Attrs{Path: bgp.Sequence(64500, 100)}}},
			})
		}
	}

	b.Run("delta", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix := rib.NewIndex()
			if err := ix.Load("c", delta); err != nil {
				b.Fatal(err)
			}
			ix.Close(t0 + 300)
		}
	})
	b.Run("snapshots", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix := rib.NewIndex()
			if err := ix.Load("c", snaps); err != nil {
				b.Fatal(err)
			}
			ix.Close(t0 + 300)
		}
	})
}

// BenchmarkAblationSBLMatcher compares the production classifier against
// a naive per-keyword re-scan over a synthetic corpus.
func BenchmarkAblationSBLMatcher(b *testing.B) {
	texts := make([]string, 512)
	base := []string{
		"Hijacked netblock on Stolen AS62927, illegal announcement via rogue transit",
		"Snowshoe spam range used for high volume emission",
		"Register Of Known Spam Operations entry for a long-running operation",
		"AS204139 spammer hosting: bulletproof hosting ignoring complaints",
		"Unallocated bogon space announced for spam",
	}
	for i := range texts {
		texts[i] = base[i%len(base)]
	}

	b.Run("classifier", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, t := range texts {
				cl := sbl.Classify(t)
				if len(cl.Categories) == 0 && !cl.NeedsReview {
					b.Fatal("bad classification")
				}
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		keywords := []string{"hijack", "stolen", "snowshoe", "known spam operation", "hosting", "unallocated", "bogon"}
		for i := 0; i < b.N; i++ {
			for _, t := range texts {
				n := 0
				lower := []byte(t)
				for j := range lower {
					c := lower[j]
					if c >= 'A' && c <= 'Z' {
						lower[j] = c + 32
					}
				}
				ls := string(lower)
				for _, k := range keywords {
					if bytes.Contains([]byte(ls), []byte(k)) {
						n++
					}
				}
				_ = n
			}
		}
	})
}

// BenchmarkWorldGeneration measures the synthetic-world generator alone
// at the default scale.
func BenchmarkWorldGeneration(b *testing.B) {
	cfg := scenario.DefaultParams()
	cfg.Scale = 512
	for i := 0; i < b.N; i++ {
		if _, err := scenario.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCounterfactuals measures the extension analyses: ROV impact,
// AS0 remediation arithmetic, maxLength audit, and path-end validation.
func BenchmarkCounterfactuals(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.ROVCounterfactual()
		_ = p.AS0WhatIf()
		_ = p.MaxLengthAnalysis()
		_ = p.PathEndCounterfactual()
	}
}

// BenchmarkRTRSync measures a full RPKI-to-Router reset handshake over an
// in-memory pipe: the cache streams its VRP set to the router.
func BenchmarkRTRSync(b *testing.B) {
	p := benchPipeline(b)
	vrps := rtr.SnapshotVRPs(p.Dataset().RPKI, p.Window().Last, nil)
	if len(vrps) == 0 {
		b.Fatal("no VRPs")
	}
	b.SetBytes(int64(20 * len(vrps))) // one 20-byte PDU per VRP
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv := rtr.NewServer(1, vrps)
		client, server := net.Pipe()
		go func() { _ = srv.HandleConn(server) }()
		c := rtr.NewClient(client)
		if err := c.Reset(); err != nil {
			b.Fatal(err)
		}
		if len(c.VRPs) != len(vrps) {
			b.Fatal("short sync")
		}
		client.Close()
	}
}

var (
	shardBenchOnce sync.Once
	shardBenchIx   *rib.Index
	shardBenchWin  timex.Range
)

// shardBenchIndex builds one volume-amplified index for the sharding
// benchmarks: the study world plus RouteViews-realistic background
// churn at scale 4096, so the freeze/persist cost is dominated by real
// column work rather than fixture overhead.
func shardBenchIndex(b *testing.B) (*rib.Index, timex.Range) {
	b.Helper()
	shardBenchOnce.Do(func() {
		cfg := DefaultConfig()
		cfg.Scale = 256
		s, err := NewStudy(cfg)
		if err != nil {
			panic(err)
		}
		s.AmplifyVolume(4096, 1)
		ix := rib.NewIndex()
		names := make([]string, 0, len(s.World.MRT))
		for name := range s.World.MRT {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if err := ix.Load(name, s.World.MRT[name]); err != nil {
				panic(err)
			}
		}
		ix.Close(s.World.Params.Window.Last)
		shardBenchIx, shardBenchWin = ix, s.World.Params.Window
	})
	return shardBenchIx, shardBenchWin
}

// BenchmarkShardFreeze compares persisting one generation as a single
// snapshot file against cutting it into 4 prefix-range shards and
// writing them on the worker pool: the freeze+encode+fsync pipeline is
// the cold path a reload blocks on, and sharding parallelizes all of
// it. The shardgate CI check asserts sharded/single >= 1.5x on 4+
// cores.
func BenchmarkShardFreeze(b *testing.B) {
	ix, window := shardBenchIndex(b)
	b.Run("single", func(b *testing.B) {
		dir := b.TempDir()
		for i := 0; i < b.N; i++ {
			frozen, err := ix.Frozen()
			if err != nil {
				b.Fatal(err)
			}
			var digest [32]byte
			digest[0], digest[1] = byte(i), byte(i>>8)
			path := filepath.Join(dir, ribsnap.GenName(digest))
			if err := ribsnap.Write(path, frozen, window, digest, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sharded", func(b *testing.B) {
		st, err := ribsnap.OpenStore(b.TempDir(), ribsnap.StoreOptions{Retain: 1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			shards, err := ix.FrozenShards(4, 0)
			if err != nil {
				b.Fatal(err)
			}
			var digest [32]byte
			digest[0], digest[1], digest[2] = 0x5D, byte(i), byte(i>>8)
			if err := st.WriteShards(shards, window, digest, nil, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkShardQueryFanout measures the cross-shard aggregate path: a
// RoutedSpace sweep fanned out over 4 shards and merged, against the
// same sweep on the unsharded index.
func BenchmarkShardQueryFanout(b *testing.B) {
	ix, window := shardBenchIndex(b)
	day := window.First + timex.Day(window.Days()/2)
	b.Run("single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ix.RoutedSpace(day, 1).Len() == 0 {
				b.Fatal("empty sweep")
			}
		}
	})
	b.Run("sharded", func(b *testing.B) {
		shards, err := ix.FrozenShards(4, 0)
		if err != nil {
			b.Fatal(err)
		}
		sh, err := rib.ShardedFromFrozen(shards, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if sh.RoutedSpace(day, 1).Len() == 0 {
				b.Fatal("empty sweep")
			}
		}
	})
}
