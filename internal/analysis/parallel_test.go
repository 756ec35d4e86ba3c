package analysis

import (
	"reflect"
	"testing"

	"dropscope/internal/mrt"
	"dropscope/internal/rib"
	"dropscope/internal/scenario"
)

// newPipeline reassembles the streams into an index on a pool of
// workers (rib.Build, strict) and builds the pipeline over it.
func newPipeline(ds Dataset, streams map[string][]mrt.Record, workers int) (*Pipeline, error) {
	ix, err := rib.Build(rib.Streams(streams), ds.Window.Last, workers, nil, 0)
	if err != nil {
		return nil, err
	}
	return NewWithOptions(ds, Options{Index: ix})
}

// worldDataset is w's dataset and its MRT streams.
func worldDataset(w *scenario.World) (Dataset, map[string][]mrt.Record) {
	return Dataset{
		Window: w.Params.Window,
		DROP:   w.DROP, SBL: w.SBL, IRR: w.IRR, RPKI: w.RPKI, RIR: w.RIR,
	}, w.MRT
}

// smallDataset generates a reduced world (large Scale divisor = small
// background population) so the parallel/serial comparisons stay fast.
func smallDataset(t *testing.T) (Dataset, map[string][]mrt.Record) {
	t.Helper()
	cfg := scenario.DefaultParams()
	cfg.Scale = 512
	w, err := scenario.Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return worldDataset(w)
}

// TestParallelNewMatchesSerial builds the pipeline both ways over the
// same archives and checks the reassembled index and a spread of
// experiment outputs are identical — the guarantee that lets the build
// default to its concurrent pool.
func TestParallelNewMatchesSerial(t *testing.T) {
	ds, streams := smallDataset(t)
	serial, err := newPipeline(ds, streams, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := newPipeline(ds, streams, 0)
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
	ds, streams := smallDataset(t)
	ref, err := newPipeline(ds, streams, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 3, 64} {
		p, err := newPipeline(ds, streams, workers)
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
	ds, streams := smallDataset(t)
	// Rebuild the MRT map with one collector's stream truncated so a RIB
	// record precedes its peer index table.
	broken := make(map[string][]mrt.Record, len(streams))
	corrupted := ""
	for name, recs := range streams {
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
	_, errSerial := newPipeline(ds, broken, 1)
	_, errParallel := newPipeline(ds, broken, 0)
	if errSerial == nil || errParallel == nil {
		t.Fatalf("both paths should fail: serial=%v parallel=%v", errSerial, errParallel)
	}
	if errSerial.Error() != errParallel.Error() {
		t.Errorf("error strings diverged:\nserial   %v\nparallel %v", errSerial, errParallel)
	}
}
