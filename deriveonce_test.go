package dropscope

import (
	"sync/atomic"
	"testing"

	"dropscope/internal/analysis"
	"dropscope/internal/bgp"
	"dropscope/internal/netx"
	"dropscope/internal/rib"
	"dropscope/internal/scenario"
)

// countingQuerier counts the whole-index and per-prefix derivations the
// experiments request through Pipeline.Index.
type countingQuerier struct {
	rib.Querier
	byOrigin, timelines atomic.Int64
}

func (c *countingQuerier) ByOrigin() map[bgp.ASN]*rib.OriginActivity {
	c.byOrigin.Add(1)
	return c.Querier.ByOrigin()
}

func (c *countingQuerier) OriginTimeline(p netx.Prefix) []rib.OriginSpan {
	c.timelines.Add(1)
	return c.Querier.OriginTimeline(p)
}

// TestExperimentsDeriveOnce pins the call pattern of a full run: one
// per-origin sweep shared by every experiment, and timelines requested
// only for Fig 4's case prefix and its candidate siblings — a count
// that does not grow with the number of origins or prefixes. The world
// is volume-amplified so prefixes have many origins.
func TestExperimentsDeriveOnce(t *testing.T) {
	w, err := scenario.Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	scenario.AmplifyVolume(w, 2048, 1)
	ds := analysis.Dataset{
		Window: w.Params.Window,
		DROP:   w.DROP, SBL: w.SBL, IRR: w.IRR, RPKI: w.RPKI, RIR: w.RIR,
	}
	ix, err := rib.Build(rib.Streams(w.MRT), ds.Window.Last, 0, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	runs := map[string]func(*Study) Results{
		"serial":   (*Study).ResultsSerial,
		"parallel": (*Study).Results,
	}
	for name, run := range runs {
		q := &countingQuerier{Querier: ix}
		p, err := analysis.NewWithOptions(ds, analysis.Options{Index: q})
		if err != nil {
			t.Fatal(err)
		}
		r := run(&Study{Pipeline: p})
		if len(r.Hijackers) == 0 || r.Fig4.SiblingCount == 0 {
			t.Fatalf("%s: %d hijacker profiles, %d Fig 4 siblings; the run derived nothing to count",
				name, len(r.Hijackers), r.Fig4.SiblingCount)
		}
		if n := q.byOrigin.Load(); n != 1 {
			t.Errorf("%s: ByOrigin called %d times, want 1", name, n)
		}
		limit := int64(1 + len(p.OriginActivity()[r.Fig4.CaseOrigin].Prefixes))
		if n := q.timelines.Load(); n > limit {
			t.Errorf("%s: OriginTimeline called %d times, want at most %d (%d origins, %d prefixes)",
				name, n, limit, len(p.OriginActivity()), ix.NumPrefixes())
		}
	}
}
