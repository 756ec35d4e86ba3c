// Package analysis implements the paper's measurement pipeline. It
// consumes only the archive substrates — DROP snapshots, SBL records,
// reassembled RouteViews RIBs, the IRR journal, the RPKI archive, and RIR
// stats — and recomputes every table and figure of the paper. It never
// touches generator ground truth.
package analysis

import (
	"fmt"

	"dropscope/internal/bgp"
	"dropscope/internal/drop"
	"dropscope/internal/ingest"
	"dropscope/internal/irr"
	"dropscope/internal/netx"
	"dropscope/internal/rib"
	"dropscope/internal/rirstats"
	"dropscope/internal/rpki"
	"dropscope/internal/sbl"
	"dropscope/internal/timex"
)

// Dataset is the set of inputs the pipeline consumes besides the RIB
// index, which Options carries.
type Dataset struct {
	Window timex.Range
	DROP   *drop.Archive
	SBL    *sbl.DB
	IRR    *irr.DB
	RPKI   *rpki.Archive
	RIR    *rirstats.Timeline
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
// with NewWithOptions over an index reassembled once (rib.Build) or
// mapped from a snapshot.
type Pipeline struct {
	ds       Dataset
	Index    rib.Querier
	Listings []*Listing
	// Health is the ingest accounting of a lenient load; nil after a
	// strict one.
	Health *ingest.Health

	cache queryCache
}

// Options configures how NewWithOptions builds the pipeline.
type Options struct {
	// Health is the ingest accounting of a lenient load, exposed as
	// Pipeline.Health; nil after a strict one.
	Health *ingest.Health
	// Index is the closed RIB index the experiments query, installed as
	// Pipeline.Index verbatim: built by rib.Build, or warm-loaded from a
	// snapshot (internal/ribsnap), possibly as a prefix-range sharded
	// fan-out (rib.Sharded). The caller vouches that it matches the
	// dataset's window.
	Index rib.Querier
}

// NewWithOptions builds the pipeline over a prebuilt index: it extracts
// DROP listing events, classifies SBL records, and annotates listings
// with registry and allocation state. The window must hold at least one
// day: every experiment reads its last day.
func NewWithOptions(ds Dataset, opts Options) (*Pipeline, error) {
	if ds.DROP == nil || ds.SBL == nil || ds.IRR == nil || ds.RPKI == nil || ds.RIR == nil || opts.Index == nil {
		return nil, fmt.Errorf("analysis: incomplete dataset")
	}
	if ds.Window.Last < ds.Window.First {
		return nil, fmt.Errorf("analysis: window %s is empty: its last day is before its first", ds.Window)
	}
	p := &Pipeline{ds: ds, Index: opts.Index, Health: opts.Health}
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
	ps := make([]netx.Prefix, len(ls))
	for i, l := range ls {
		ps[i] = l.Prefix
	}
	netx.SortPrefixes(ps)
	return netx.NewSortedSet(ps).AddrCount()
}
