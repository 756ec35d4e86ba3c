// Package analysis implements the paper's measurement pipeline. It
// consumes only the archive substrates — DROP snapshots, SBL records,
// reassembled RouteViews RIBs, the IRR journal, the RPKI archive, and RIR
// stats — and recomputes every table and figure of the paper. It never
// touches generator ground truth.
package analysis

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"dropscope/internal/bgp"
	"dropscope/internal/drop"
	"dropscope/internal/ingest"
	"dropscope/internal/irr"
	"dropscope/internal/mrt"
	"dropscope/internal/netx"
	"dropscope/internal/rib"
	"dropscope/internal/rirstats"
	"dropscope/internal/rpki"
	"dropscope/internal/sbl"
	"dropscope/internal/timex"
)

// Dataset is the full set of inputs the pipeline consumes.
type Dataset struct {
	Window timex.Range
	DROP   *drop.Archive
	SBL    *sbl.DB
	IRR    *irr.DB
	RPKI   *rpki.Archive
	RIR    *rirstats.Timeline
	// MRT holds each collector's record stream.
	MRT map[string][]mrt.Record
}

// Listing is one DROP listing enriched with everything the analyses need.
type Listing struct {
	drop.Listing
	Classification sbl.Classification
	Registry       rirstats.RIR
	HasRegistry    bool
	// UnallocatedAtListing reports the RIR-stats allocation state on the
	// listing day.
	UnallocatedAtListing bool
	// Incident marks the prefixes attributed to the two AFRINIC incidents,
	// identified (as in the paper) as the anomalously large hijack blocks;
	// they are excluded from the behavioral analyses.
	Incident bool
}

// Has reports whether the listing carries category c.
func (l *Listing) Has(c sbl.Category) bool { return l.Classification.Has(c) }

// Pipeline joins the data sets and serves every experiment. Build one
// with New; it reassembles the RIBs once and reuses them.
type Pipeline struct {
	ds       Dataset
	Index    rib.Querier
	Listings []*Listing
	// Health accumulates ingest accounting when the pipeline was built
	// leniently (Options.Lenient); nil after a strict build.
	Health *ingest.Health

	cache queryCache
}

// Options configures how New builds the pipeline.
type Options struct {
	// Workers bounds the RIB-loading pool. <= 0 means
	// runtime.GOMAXPROCS(0); 1 loads serially.
	Workers int
	// Lenient tolerates damaged collectors: instead of the first
	// unappliable record failing the build, records are skipped and
	// counted, and a collector whose skip count exceeds MaxSkip is
	// quarantined — dropped from the merge — while the study proceeds
	// with the remaining collectors.
	Lenient bool
	// MaxSkip is the per-collector skip budget in lenient mode. 0 means
	// ingest.DefaultMaxSkip; negative means unlimited.
	MaxSkip int
	// Health receives per-source accounting in lenient mode. When nil, a
	// fresh accumulator is created (exposed as Pipeline.Health). Pass the
	// same Health the archive was loaded with so decode-stage skips count
	// toward each collector's budget.
	Health *ingest.Health
	// Index, when non-nil, is a prebuilt query view over a closed RIB
	// index — typically warm-loaded from a snapshot (internal/ribsnap),
	// possibly a prefix-range sharded fan-out (rib.Sharded) — installed
	// as Pipeline.Index verbatim. MRT reassembly (load, merge, close) is
	// skipped entirely and ds.MRT may be nil; everything else (listings,
	// classification, registry annotation) proceeds normally. The caller
	// vouches that the index matches the dataset's MRT state and window.
	Index rib.Querier
}

// New builds the pipeline: loads every collector's MRT stream into a RIB
// index, extracts DROP listing events, classifies SBL records, and
// annotates listings with registry and allocation state. It is
// NewWithOptions with the zero Options: a strict build on a bounded pool
// of runtime.GOMAXPROCS(0) workers.
func New(ds Dataset) (*Pipeline, error) {
	return NewWithOptions(ds, Options{})
}

// NewWithOptions is New under explicit build options. A strict build
// (the default) fails on the first unappliable record, exactly as New
// does; a lenient build skips and counts damage per collector,
// quarantines collectors beyond their skip budget, and records
// everything in Pipeline.Health. The per-collector RIB reassembly — the
// dominant cost — runs on Options.Workers goroutines; whatever the
// options, collector RIBs merge in sorted name order, so serial
// (Workers: 1) and parallel builds over the same (possibly damaged)
// dataset are identical byte for byte.
func NewWithOptions(ds Dataset, opts Options) (*Pipeline, error) {
	if ds.DROP == nil || ds.SBL == nil || ds.IRR == nil || ds.RPKI == nil || ds.RIR == nil {
		return nil, fmt.Errorf("analysis: incomplete dataset")
	}
	p := &Pipeline{ds: ds}
	if opts.Lenient {
		if opts.Health == nil {
			opts.Health = ingest.NewHealth()
		}
		if opts.MaxSkip == 0 {
			opts.MaxSkip = ingest.DefaultMaxSkip
		}
		p.Health = opts.Health
	}

	if opts.Index != nil {
		p.Index = opts.Index
	} else {
		collectors := make([]string, 0, len(ds.MRT))
		for name := range ds.MRT {
			collectors = append(collectors, name)
		}
		sort.Strings(collectors)

		ribs, err := loadCollectors(ds.MRT, collectors, opts)
		if err != nil {
			return nil, err
		}
		ix := rib.NewIndex()
		for _, c := range ribs {
			if c == nil {
				continue // quarantined
			}
			if err := ix.Merge(c); err != nil {
				return nil, fmt.Errorf("analysis: %s: %w", c.Collector(), err)
			}
		}
		ix.Close(ds.Window.Last)
		p.Index = ix
	}

	for _, l := range ds.DROP.Listings() {
		el := &Listing{Listing: l, Classification: ds.SBL.ClassifyRef(l.SBLRef)}
		if reg, ok := ds.RIR.ManagedBy(l.Prefix); ok {
			el.Registry, el.HasRegistry = reg, true
		}
		el.UnallocatedAtListing = ds.RIR.UnallocatedAt(l.Prefix, l.Added)
		p.Listings = append(p.Listings, el)
	}
	p.markIncidents()
	return p, nil
}

// loadCollectors reassembles each collector's RIB, fanning the work out
// over a bounded pool. Error propagation is errgroup-style: the first
// failure stops workers from claiming further collectors, in-flight loads
// drain, and the error reported is the erroring collector earliest in
// sorted order — the same one the serial path would have surfaced.
//
// In lenient mode a collector never errors: its unappliable records are
// skipped and counted, and if the skip total (decode-stage skips already
// on its Source plus semantic skips added here) exceeds the budget, the
// collector is quarantined — its slot stays nil. Each quarantine
// decision depends only on that collector's own stream, so worker count
// cannot change the outcome.
func loadCollectors(streams map[string][]mrt.Record, collectors []string, opts Options) ([]*rib.CollectorRIB, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(collectors) {
		workers = len(collectors)
	}
	ribs := make([]*rib.CollectorRIB, len(collectors))
	errs := make([]error, len(collectors))

	loadOne := func(name string) (*rib.CollectorRIB, error) {
		if !opts.Lenient {
			return rib.LoadCollector(name, streams[name])
		}
		recs := streams[name]
		src := opts.Health.Source("mrt/" + name)
		if src.Records == 0 && src.Skipped() == 0 {
			// The stream arrived in memory without passing through a
			// lenient decode; every record present counts as accepted.
			src.Accept(uint64(len(recs)))
		}
		if overBudget(src, opts.MaxSkip) {
			// Decode-stage damage alone exhausted the budget.
			src.Quarantine(budgetNote(src, opts.MaxSkip))
			return nil, nil
		}
		c, err := rib.LoadCollectorHealth(name, recs, src)
		if err != nil {
			return nil, err
		}
		if overBudget(src, opts.MaxSkip) {
			src.Quarantine(budgetNote(src, opts.MaxSkip))
			return nil, nil
		}
		return c, nil
	}

	if workers <= 1 {
		for i, name := range collectors {
			c, err := loadOne(name)
			if err != nil {
				return nil, fmt.Errorf("analysis: %s: %w", name, err)
			}
			ribs[i] = c
		}
		return ribs, nil
	}

	var (
		next   atomic.Int64 // next unclaimed collector index
		failed atomic.Bool  // set on first error; stops new claims
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(collectors) || failed.Load() {
					return
				}
				c, err := loadOne(collectors[i])
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				ribs[i] = c
			}
		}()
	}
	wg.Wait()

	// Workers claim indices in increasing order, so the lowest-index error
	// matches what serial loading would have hit first.
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("analysis: %s: %w", collectors[i], err)
		}
	}
	return ribs, nil
}

// overBudget reports whether the source's skip total exceeds the budget.
// A negative budget means unlimited.
func overBudget(src *ingest.Source, budget int) bool {
	return budget >= 0 && src.Skipped() > uint64(budget)
}

func budgetNote(src *ingest.Source, budget int) string {
	return fmt.Sprintf("%d skips exceed budget %d", src.Skipped(), budget)
}

// HealthReport summarizes the ingest accounting of a lenient build. A
// strict build returns a zero (clean) report.
func (p *Pipeline) HealthReport() ingest.Report {
	if p.Health == nil {
		return ingest.Report{}
	}
	return p.Health.Report()
}

// markIncidents identifies the AFRINIC-incident prefixes the way the
// paper did: hijack-labeled AFRINIC prefixes of anomalous size (/14 or
// larger) clustered on shared listing days.
func (p *Pipeline) markIncidents() {
	for _, l := range p.Listings {
		if l.Has(sbl.Hijacked) && l.Registry == rirstats.Afrinic && l.Prefix.Bits() <= 14 {
			l.Incident = true
		}
	}
}

// Window returns the analysis window.
func (p *Pipeline) Window() timex.Range { return p.ds.Window }

// Dataset returns the underlying dataset.
func (p *Pipeline) Dataset() Dataset { return p.ds }

// NonIncident returns the listings excluding the AFRINIC incidents.
func (p *Pipeline) NonIncident() []*Listing {
	out := make([]*Listing, 0, len(p.Listings))
	for _, l := range p.Listings {
		if !l.Incident {
			out = append(out, l)
		}
	}
	return out
}

// originAtListing returns the plurality BGP origin of the prefix on its
// listing day.
func (p *Pipeline) originAtListing(l *Listing) (bgp.ASN, bool) {
	return p.Index.OriginAt(l.Prefix, l.Added)
}

// addrSpace sums the union address space of the given listings.
func addrSpace(ls []*Listing) uint64 {
	var set netx.Set
	for _, l := range ls {
		set.Add(l.Prefix)
	}
	return set.AddrCount()
}
