package analysis

import (
	"reflect"
	"testing"

	"dropscope/internal/mrt"
	"dropscope/internal/scenario"
)

// smallDataset generates a reduced world (large Scale divisor = small
// background population) so the parallel/serial comparisons stay fast.
func smallDataset(t *testing.T) Dataset {
	t.Helper()
	cfg := scenario.DefaultParams()
	cfg.Scale = 512
	w, err := scenario.Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return Dataset{
		Window: w.Params.Window,
		DROP:   w.DROP, SBL: w.SBL, IRR: w.IRR, RPKI: w.RPKI, RIR: w.RIR,
		MRT: w.MRT,
	}
}

// TestParallelNewMatchesSerial builds the pipeline both ways over the
// same archives and checks the reassembled index and a spread of
// experiment outputs are identical — the guarantee that lets New default
// to the concurrent loader.
func TestParallelNewMatchesSerial(t *testing.T) {
	ds := smallDataset(t)
	serial, err := NewWithOptions(ds, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := New(ds)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(serial.Index.Peers(), parallel.Index.Peers()) {
		t.Fatal("peer registration order diverged between serial and parallel load")
	}
	if s, p := serial.Index.NumPrefixes(), parallel.Index.NumPrefixes(); s != p {
		t.Fatalf("prefix counts diverged: %d != %d", s, p)
	}
	if !reflect.DeepEqual(serial.Listings, parallel.Listings) {
		t.Fatal("listings diverged")
	}

	checks := []struct {
		name string
		run  func(p *Pipeline) any
	}{
		{"Fig1", func(p *Pipeline) any { return p.Fig1Classification() }},
		{"Fig2", func(p *Pipeline) any { return p.Fig2Visibility() }},
		{"Table1", func(p *Pipeline) any { return p.Table1RPKIUptake() }},
		{"Fig4", func(p *Pipeline) any { return p.Fig4RPKIValidHijacks() }},
		{"Fig6", func(p *Pipeline) any { return p.Fig6UnallocatedTimeline() }},
		{"Hijackers", func(p *Pipeline) any { return p.SerialHijackers(3, 0.5, 365) }},
		{"MOAS", func(p *Pipeline) any { return p.MOASSweep() }},
	}
	for _, c := range checks {
		if !reflect.DeepEqual(c.run(serial), c.run(parallel)) {
			t.Errorf("%s diverged between serial and parallel pipelines", c.name)
		}
	}
}

// TestParallelNewWorkerSweep checks every worker bound produces the same
// index, including bounds above the collector count.
func TestParallelNewWorkerSweep(t *testing.T) {
	ds := smallDataset(t)
	ref, err := NewWithOptions(ds, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 3, 64} {
		p, err := NewWithOptions(ds, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(ref.Index.Peers(), p.Index.Peers()) {
			t.Errorf("workers=%d: peer order diverged", workers)
		}
		if ref.Index.NumPrefixes() != p.Index.NumPrefixes() {
			t.Errorf("workers=%d: prefix count diverged", workers)
		}
	}
}

// TestParallelLoadErrorMatchesSerial corrupts one collector's stream and
// checks the parallel loader surfaces the same error, wrapped the same
// way, as the serial path.
func TestParallelLoadErrorMatchesSerial(t *testing.T) {
	ds := smallDataset(t)
	// Rebuild the MRT map with one collector's stream truncated so a RIB
	// record precedes its peer index table.
	broken := make(map[string][]mrt.Record, len(ds.MRT))
	corrupted := ""
	for name, recs := range ds.MRT {
		broken[name] = recs
	}
	for name, recs := range broken {
		for i, rec := range recs {
			if _, ok := rec.(*mrt.RIBPrefix); ok && i > 0 {
				broken[name] = recs[i:]
				corrupted = name
				break
			}
		}
		if corrupted != "" {
			break
		}
	}
	if corrupted == "" {
		t.Skip("no RIB record found to corrupt")
	}
	ds.MRT = broken

	_, errSerial := NewWithOptions(ds, Options{Workers: 1})
	_, errParallel := New(ds)
	if errSerial == nil || errParallel == nil {
		t.Fatalf("both paths should fail: serial=%v parallel=%v", errSerial, errParallel)
	}
	if errSerial.Error() != errParallel.Error() {
		t.Errorf("error strings diverged:\nserial   %v\nparallel %v", errSerial, errParallel)
	}
}
