// Package dropscope reproduces the measurement pipeline of "Stop, DROP,
// and ROA: Effectiveness of Defenses through the lens of DROP" (IMC 2022).
//
// The library has three layers:
//
//   - Substrates (internal/...): from-scratch implementations of every
//     data format the study consumes — MRT (RFC 6396) with full BGP UPDATE
//     wire codec, RPSL/IRR with a journaled registry, RPKI ROAs with
//     RFC 6811 validation and per-RIR trust anchors, RIR delegated-extended
//     stats, the Spamhaus DROP list format, and SBL record classification.
//
//   - A deterministic synthetic-Internet generator (internal/scenario)
//     calibrated to the paper's populations and behaviors, standing in for
//     the proprietary feeds; it emits genuine archive bytes.
//
//   - The analysis pipeline (internal/analysis) that recomputes every
//     table and figure of the paper from the archives alone.
//
// Quick start:
//
//	study, err := dropscope.NewStudy(dropscope.DefaultConfig())
//	if err != nil { ... }
//	results := study.Results()
//	results.Render(os.Stdout)
package dropscope

import (
	"fmt"
	"io"

	"dropscope/internal/analysis"
	"dropscope/internal/archive"
	"dropscope/internal/ingest"
	"dropscope/internal/loader"
	"dropscope/internal/rib"
	"dropscope/internal/ribsnap"
	"dropscope/internal/scenario"
)

// Config parameterizes the synthetic world; see scenario.Params for every
// knob. DefaultConfig reproduces the paper at 1/64 background scale.
type Config = scenario.Params

// DefaultConfig returns the paper-calibrated configuration.
func DefaultConfig() Config { return scenario.DefaultParams() }

// Study couples a generated world with its analysis pipeline.
type Study struct {
	World    *scenario.World
	Pipeline *analysis.Pipeline

	// snap is the cached generation the study's index is served from;
	// nil after a generated study or one built in memory. It is retained
	// because the pipeline's index aliases the generation's file
	// mappings.
	snap *ribsnap.Snapshot
}

// Close releases resources the study holds beyond the Go heap —
// currently the file mappings behind an index served from the cache.
// The study must not be used afterwards. Close is a no-op (and always
// safe) on generated or cold-built studies.
func (s *Study) Close() error {
	if s.snap == nil {
		return nil
	}
	snap := s.snap
	s.snap = nil
	return snap.Close()
}

// NewStudy generates a world and builds the analysis pipeline over its
// archives. Per-collector RIB reassembly fans out across
// runtime.GOMAXPROCS(0) workers; the result is identical to
// NewStudySerial's (collector RIBs merge in sorted name order whatever
// the schedule).
func NewStudy(cfg Config) (*Study, error) {
	return newStudy(cfg, 0)
}

// NewStudySerial is NewStudy with the RIB-loading worker pool disabled:
// everything runs on the calling goroutine. It is the construction-time
// counterpart of ResultsSerial.
func NewStudySerial(cfg Config) (*Study, error) {
	return newStudy(cfg, 1)
}

func newStudy(cfg Config, workers int) (*Study, error) {
	w, err := scenario.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("dropscope: generate: %w", err)
	}
	ix, err := rib.Build(rib.Streams(w.MRT), cfg.Window.Last, workers, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("dropscope: pipeline: %w", err)
	}
	p, err := analysis.NewWithOptions(analysis.Dataset{
		Window: cfg.Window,
		DROP:   w.DROP, SBL: w.SBL, IRR: w.IRR, RPKI: w.RPKI, RIR: w.RIR,
	}, analysis.Options{Index: ix})
	if err != nil {
		return nil, fmt.Errorf("dropscope: pipeline: %w", err)
	}
	return &Study{World: w, Pipeline: p}, nil
}

// IngestOptions configures how LoadStudyWithOptions reads archives and
// builds the pipeline.
type IngestOptions struct {
	// Strict fails the load on the first corrupt MRT record or malformed
	// text line, with the record index and byte offset in the error. The
	// default (false) reads leniently: damage is skipped and counted per
	// source, and a collector whose skip count exceeds MaxSkip is
	// quarantined while the study proceeds without it.
	Strict bool
	// MaxSkip is the per-collector skip budget in lenient mode. 0 means
	// ingest.DefaultMaxSkip (100); negative means unlimited.
	MaxSkip int
	// Workers bounds the RIB-loading pool and the archive's text load
	// (archive.LoadOptions.Workers): <= 0 means runtime.GOMAXPROCS(0),
	// 1 loads serially.
	Workers int
	// SnapshotDir enables warm starts. When non-empty, it is opened as a
	// snapshot store — the layout dropscoped's -snapshot uses: a manifest
	// journal plus one gen-<digest>/ directory of shard snapshots per
	// archive state, keyed on a digest of the archive's MRT bytes. When
	// the store holds the archive's generation, MRT decode and index
	// construction are skipped entirely and the index is served from it
	// (memory-mapped and used in place on little-endian platforms); the
	// study's rendered output is byte-identical to a cold build's. When
	// the generation is missing, stale, version-skewed, or damaged, the
	// loader falls back to a cold build — never to wrong results — counts
	// the discarded generation in the health report (lenient mode), and
	// writes the generation after a clean rebuild. A store that cannot
	// be opened leaves the load cache-off.
	SnapshotDir string
	// Shards, when > 1, cuts the generations the load writes into Shards
	// prefix-range pieces, and a generation cut that way is served as a
	// sharded index: point queries route to the owning shard, and sweeps
	// fan out in parallel. It needs SnapshotDir — a sharded index exists
	// only as a store generation — and takes effect at the next
	// generation written, because a stored generation is served in the
	// shard count it was written with. The rendered output is
	// byte-identical to the single-index study's (see
	// internal/rib.Sharded and the dropscoped daemon's
	// -shards/-mem-budget flags).
	Shards int
	// Append, with SnapshotDir, enables incremental delta ingest: when
	// the cached snapshot is stale because the MRT archives grew
	// append-only (new bytes at the tails, old bytes untouched), the
	// snapshot is adopted as a base, only the appended bytes are decoded
	// and merged onto it, and the merged index is persisted as the new
	// snapshot — days already ingested are never re-decoded. The
	// rendered output is byte-identical to a cold rebuild of the grown
	// archive. Any deviation from the append-only contract (a rewritten
	// or truncated file, a removed collector, a moved window start)
	// falls back to a cold build — append may cost time, never
	// correctness.
	Append bool
}

// LoadStudyWithOptions builds the pipeline from archives previously
// written with (*Study).WriteArchives — the file-based path a downstream
// user takes with their own data. With opts.Strict, the first corrupt
// record or malformed line fails the load. After a lenient load,
// per-source skip accounting and quarantine decisions are available via
// the pipeline's Health and appear in the rendered report's data-health
// section; over undamaged archives the lenient path's output is
// byte-identical to the strict path's. The load itself
// — delta, warm or cold, and what is persisted — is internal/loader's,
// shared with the dropscoped daemon.
func LoadStudyWithOptions(dir string, cfg Config, opts IngestOptions) (*Study, error) {
	var h *ingest.Health
	if !opts.Strict {
		h = ingest.NewHealth()
	}
	var store *ribsnap.Store
	if opts.SnapshotDir != "" {
		// A cache that cannot be opened costs time, never the load: it
		// runs cache-off, as dropscoped's does.
		store, _ = ribsnap.OpenStore(opts.SnapshotDir, ribsnap.StoreOptions{})
	}
	l, err := loader.Load(dir, loader.Options{
		Window:  cfg.Window,
		Health:  h,
		MaxSkip: opts.MaxSkip,
		Workers: opts.Workers,
		Store:   store,
		Shards:  opts.Shards,
		Delta:   opts.Append,
	})
	if err != nil {
		return nil, fmt.Errorf("dropscope: %w", err)
	}
	st := &Study{Pipeline: l.Pipeline}
	if l.Shards != nil {
		st.snap = l.Snapshot
	}
	return st, nil
}

// AmplifyVolume appends RouteViews-realistic background churn to the
// generated world's MRT streams — per-collector record counts drawn
// from a seeded lognormal around scale, flapping synthetic prefixes
// across the window's days — so archives written afterwards carry
// production-like record volume for index-build and sharding
// benchmarks. The churn lives entirely in address space the study
// never measures; see scenario.AmplifyVolume. It returns the record
// and distinct-prefix counts appended, and must run before
// WriteArchives. The study's own Pipeline is NOT rebuilt: a study
// loaded back from the amplified archives sees the extra volume.
func (s *Study) AmplifyVolume(scale int, seed int64) (records, prefixes int) {
	if s.World == nil {
		return 0, 0
	}
	return scenario.AmplifyVolume(s.World, scale, seed)
}

// WriteArchives persists every archive of the study's world under dir in
// its native on-disk format.
func (s *Study) WriteArchives(dir string) error {
	if s.World == nil {
		return fmt.Errorf("dropscope: study has no generated world to persist")
	}
	return archive.Write(dir, &archive.Bundle{
		MRT: s.World.MRT, DROP: s.World.DROP, SBL: s.World.SBL,
		IRR: s.World.IRR, RPKI: s.World.RPKI, RIR: s.World.RIR,
	})
}

// Results bundles every reproduced table and figure.
type Results struct {
	Fig1    analysis.Fig1
	Fig2    analysis.Fig2
	Dealloc analysis.Dealloc
	Table1  analysis.Table1
	Sec5    analysis.Sec5
	Fig4    analysis.Fig4
	Fig5    analysis.Fig5
	Fig6    analysis.Fig6
	Fig7    []analysis.Fig7Sample
	Table2  analysis.Table2

	// Extensions beyond the paper's figures: the counterfactuals its
	// conclusions argue from.
	ROV       analysis.ROVImpact
	AS0WhatIf analysis.AS0Remediation
	MaxLength analysis.MaxLengthAudit
	PathEnd   analysis.PathEndImpact
	Hijackers []analysis.HijackerProfile
	MOAS      analysis.MOASReport

	// Health is the ingest accounting of a lenient build: per-source
	// records, classified skips, and quarantined collectors. It is zero
	// (Clean) after a strict build or a lenient build over undamaged
	// archives, and the rendered report gains a data-health section only
	// when it is not.
	Health ingest.Report
}

// Results runs every experiment, fanning the independent ones out across
// up to runtime.GOMAXPROCS(0) goroutines. Experiments are pure functions
// of the (immutable) pipeline, and the scheduler orders the few that read
// another's output — currently only the path-end counterfactual, which
// consumes Figure 4's case-study prefix — so the returned Results is
// byte-for-byte identical to ResultsSerial's.
func (s *Study) Results() Results {
	return runExperiments(s.Pipeline, 0)
}

// ResultsSerial runs every experiment sequentially on the calling
// goroutine — the single-threaded escape hatch for profiling, debugging,
// or embedding in an environment where spawning goroutines is unwelcome.
// Output is identical to Results.
func (s *Study) ResultsSerial() Results {
	return runExperiments(s.Pipeline, 1)
}

// Render writes every table and figure as text to w. Rendering is a pure
// function of the Results value: because the parallel and serial
// execution paths produce identical Results (see Results and
// ResultsSerial), the rendered report is byte-identical regardless of how
// the experiments were scheduled.
func (r Results) Render(w io.Writer) error {
	return renderAll(w, r)
}
