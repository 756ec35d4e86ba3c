package archive

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"dropscope/internal/analysis"
	"dropscope/internal/mrt"
	"dropscope/internal/rib"
	"dropscope/internal/scenario"
	"dropscope/internal/timex"
)

// TestRoundTripThroughDisk generates a (small) world, persists every
// archive to disk in its native format, reloads it, and verifies the
// reloaded pipeline produces the same headline results — the full
// "pipeline reassembly" path.
func TestRoundTripThroughDisk(t *testing.T) {
	p := scenario.DefaultParams()
	p.Scale = 512 // small background keeps disk I/O quick
	w, err := scenario.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bundle := &Bundle{MRT: w.MRT, DROP: w.DROP, SBL: w.SBL, IRR: w.IRR, RPKI: w.RPKI, RIR: w.RIR}
	if err := Write(dir, bundle); err != nil {
		t.Fatal(err)
	}

	loaded, err := LoadWithOptions(dir, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// DROP listings identical.
	orig := w.DROP.Listings()
	back := loaded.DROP.Listings()
	if len(orig) != len(back) {
		t.Fatalf("listings: %d != %d", len(orig), len(back))
	}
	for i := range orig {
		if orig[i] != back[i] {
			t.Fatalf("listing %d: %+v != %+v", i, orig[i], back[i])
		}
	}

	// SBL records identical.
	if got, want := loaded.SBL.Len(), w.SBL.Len(); got != want {
		t.Errorf("SBL records: %d != %d", got, want)
	}
	for _, id := range w.SBL.IDs() {
		a, _ := w.SBL.Get(id)
		b, ok := loaded.SBL.Get(id)
		if !ok || a != b {
			t.Errorf("SBL %s mismatch", id)
		}
	}

	// IRR journal identical length and per-event equality of key fields.
	if got, want := loaded.IRR.Len(), w.IRR.Len(); got != want {
		t.Fatalf("IRR events: %d != %d", got, want)
	}
	oe, le := w.IRR.Events(), loaded.IRR.Events()
	for i := range oe {
		if oe[i].Day != le[i].Day || oe[i].Op != le[i].Op ||
			oe[i].Object.Class() != le[i].Object.Class() ||
			oe[i].Object.Key() != le[i].Object.Key() {
			t.Fatalf("IRR event %d differs", i)
		}
	}

	// RPKI: both archives agree on signing status across spot days.
	for _, lt := range w.Truth.Listings[:50] {
		for _, d := range []int{-1, 0, 30, 300} {
			day := lt.Added + timex.Day(d)
			if w.RPKI.SignedAt(lt.Prefix, day) != loaded.RPKI.SignedAt(lt.Prefix, day) {
				t.Errorf("RPKI signed-at mismatch for %v at %v", lt.Prefix, day)
			}
		}
	}

	// RIR stats: allocation status matches on spot checks.
	for _, lt := range w.Truth.Listings[:50] {
		for _, d := range []int{0, 100} {
			day := lt.Added + timex.Day(d)
			if w.RIR.AllocatedAt(lt.Prefix, day) != loaded.RIR.AllocatedAt(lt.Prefix, day) {
				t.Errorf("RIR allocation mismatch for %v at %v", lt.Prefix, day)
			}
		}
	}

	// MRT streams byte-equivalent record counts. The load leaves them to
	// the RIB build; decode them here.
	streams := make(map[string][]mrt.Record, len(w.MRT))
	for name, recs := range w.MRT {
		raw, err := os.ReadFile(filepath.Join(dir, "mrt", name+".mrt"))
		if err != nil {
			t.Fatal(err)
		}
		if streams[name], err = mrt.ReadAll(bytes.NewReader(raw)); err != nil {
			t.Fatal(err)
		}
		if got := len(streams[name]); got != len(recs) {
			t.Errorf("MRT %s: %d != %d records", name, got, len(recs))
		}
	}

	// The reloaded dataset drives the full pipeline to the same headline
	// numbers as the in-memory one.
	run := func(b *Bundle, streams map[string][]mrt.Record) (int, float64) {
		ix, err := rib.Build(rib.Streams(streams), p.Window.Last, 0, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := analysis.NewWithOptions(analysis.Dataset{
			Window: p.Window, DROP: b.DROP, SBL: b.SBL, IRR: b.IRR,
			RPKI: b.RPKI, RIR: b.RIR,
		}, analysis.Options{Index: ix})
		if err != nil {
			t.Fatal(err)
		}
		f1 := pl.Fig1Classification()
		f2 := pl.Fig2Visibility()
		return f1.WithRecord, f2.WithdrawnWithin30
	}
	wr1, wd1 := run(bundle, w.MRT)
	wr2, wd2 := run(loaded, streams)
	if wr1 != wr2 || wd1 != wd2 {
		t.Errorf("pipeline results differ: (%d, %.4f) vs (%d, %.4f)", wr1, wd1, wr2, wd2)
	}

	// Spot-check a file exists in each native format.
	for _, f := range []string{"sbl/records.txt", "irr/journal.rpsl"} {
		if _, err := filepath.Glob(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing %s", f)
		}
	}
}
