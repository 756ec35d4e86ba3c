package analysis

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"dropscope/internal/netx"
	"dropscope/internal/rib"
	"dropscope/internal/scenario"
)

// referenceSerialHijackers is the origin × prefix × timeline derivation
// SerialHijackers replaced: every prefix's timeline is recomputed once
// per origin that ever announced it, and listings match on the printed
// prefix.
func referenceSerialHijackers(p *Pipeline, minPrefixes int, minListedFraction float64, maxMedianSpanDays int) []HijackerProfile {
	listed := make(map[string]bool)
	for _, l := range p.Listings {
		listed[l.Prefix.String()] = true
	}

	var out []HijackerProfile
	for origin, act := range p.Index.ByOrigin() {
		if len(act.Prefixes) < minPrefixes {
			continue
		}
		prof := HijackerProfile{Origin: origin, PrefixCount: len(act.Prefixes)}
		var spanLens []int
		for _, pfx := range act.Prefixes {
			if listed[pfx.String()] {
				prof.ListedCount++
			}
			for _, s := range p.Index.OriginTimeline(pfx) {
				if s.Origin == origin {
					spanLens = append(spanLens, int(s.To-s.From))
				}
			}
		}
		sort.Ints(spanLens)
		if len(spanLens) > 0 {
			prof.MedianSpanDays = spanLens[len(spanLens)/2]
		}
		prof.ListedFraction = float64(prof.ListedCount) / float64(prof.PrefixCount)
		if prof.ListedFraction >= minListedFraction && prof.MedianSpanDays <= maxMedianSpanDays {
			out = append(out, prof)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ListedCount != out[j].ListedCount {
			return out[i].ListedCount > out[j].ListedCount
		}
		return out[i].Origin < out[j].Origin
	})
	return out
}

// referenceFig4Siblings is the sibling search Fig4RPKIValidHijacks
// replaced: a timeline for every prefix in the index, kept when one of
// its spans shares the case's origin and transit. It returns the rows
// after the case prefix's own and the two sibling counts.
func referenceFig4Siblings(p *Pipeline, f Fig4) (rows []Fig4Row, siblings, listed int) {
	listedSet := make(map[netx.Prefix]bool)
	for _, l := range p.Listings {
		listedSet[l.Prefix] = true
	}
	for _, pfx := range p.Index.Prefixes() {
		if pfx == f.CasePrefix {
			continue
		}
		spans := p.Index.OriginTimeline(pfx)
		match := false
		for _, s := range spans {
			if s.Origin == f.CaseOrigin && s.Transit == f.CaseTransit {
				match = true
			}
		}
		if !match {
			continue
		}
		siblings++
		row := Fig4Row{
			Prefix: pfx, Spans: spans,
			Signed: p.ds.RPKI.SignedAt(pfx, p.ds.Window.Last),
			Listed: listedSet[pfx],
		}
		if row.Listed {
			listed++
		}
		rows = append(rows, row)
	}
	return rows, siblings, listed
}

// TestDerivedOnceMatchesReference holds the one-sweep hijacker profiles
// and Fig 4's candidate walk to the per-item derivations they replaced,
// over volume-amplified worlds (churn gives a prefix many origins) and
// over the unsharded index and two shard cuts of it.
func TestDerivedOnceMatchesReference(t *testing.T) {
	thresholds := []struct {
		minPrefixes int
		minListed   float64
		maxMedian   int
	}{
		{3, 0.5, 365}, // the study's
		{1, 0, 1 << 30},
		{1, 0.5, 30},
		{2, 0.01, 2},
		{10, 0.9, 400},
	}
	for _, seed := range []int64{1, 2, 3} {
		cfg := scenario.DefaultParams()
		cfg.Scale = 512
		cfg.Seed = seed
		w, err := scenario.Generate(cfg)
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		scenario.AmplifyVolume(w, 2048, seed)
		ds, streams := worldDataset(w)
		base, err := newPipeline(ds, streams, 0)
		if err != nil {
			t.Fatalf("pipeline: %v", err)
		}
		ix := base.Index.(*rib.Index)
		queriers := map[string]rib.Querier{"index": ix}
		for _, k := range []int{2, 7} {
			fs, err := ix.FrozenShards(k, 0)
			if err != nil {
				t.Fatal(err)
			}
			sh, err := rib.ShardedFromFrozen(fs, 2)
			if err != nil {
				t.Fatal(err)
			}
			queriers[fmt.Sprintf("K=%d", k)] = sh
		}
		for name, q := range queriers {
			p := &Pipeline{ds: base.ds, Index: q, Listings: base.Listings}
			name = fmt.Sprintf("seed %d %s", seed, name)

			for _, th := range thresholds {
				got := p.SerialHijackers(th.minPrefixes, th.minListed, th.maxMedian)
				want := referenceSerialHijackers(p, th.minPrefixes, th.minListed, th.maxMedian)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: SerialHijackers%+v: %d profiles, reference %d", name, th, len(got), len(want))
				}
			}
			if all := p.SerialHijackers(1, 0, 1<<30); len(all) != len(p.OriginActivity()) {
				t.Errorf("%s: %d profiles at open thresholds, %d origins", name, len(all), len(p.OriginActivity()))
			}

			f := p.Fig4RPKIValidHijacks()
			if len(f.Rows) == 0 {
				t.Fatalf("%s: no Fig 4 case study", name)
			}
			rows, siblings, listed := referenceFig4Siblings(p, f)
			if !reflect.DeepEqual(f.Rows[1:], rows) || f.SiblingCount != siblings || f.SiblingsListed != listed {
				t.Errorf("%s: Fig4 %d rows, %d siblings, %d listed; reference %d, %d, %d",
					name, len(f.Rows)-1, f.SiblingCount, f.SiblingsListed, len(rows), siblings, listed)
			}
			if siblings == 0 {
				t.Errorf("%s: case study has no siblings to compare", name)
			}
		}
	}
}
