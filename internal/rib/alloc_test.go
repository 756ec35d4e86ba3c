package rib

import (
	"bytes"
	"reflect"
	"testing"

	"dropscope/internal/bgp"
	"dropscope/internal/ingest"
	"dropscope/internal/mrt"
	"dropscope/internal/netx"
)

func closedTestIndex(t *testing.T) *Index {
	t.Helper()
	ix := NewIndex()
	err := ix.Load("rv1", []mrt.Record{
		peerTable(),
		announce(day0, 0, bgp.Sequence(64500, 100), pfx),
		announce(day0+2, 1, bgp.Sequence(64501, 100), pfx),
		withdraw(day0+10, 0, pfx),
	})
	if err != nil {
		t.Fatal(err)
	}
	ix.Close(day0 + 100)
	return ix
}

// TestPointQueryAllocs pins the post-Close point queries at zero
// allocations: Observed and VisibleFraction are the inner loop of the
// routed-space sweeps, and the columnar event index exists so they cost
// two binary searches and nothing on the heap.
func TestPointQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	ix := closedTestIndex(t)
	missing := netx.MustParsePrefix("10.99.0.0/16")

	if avg := testing.AllocsPerRun(500, func() {
		if !ix.Observed(pfx, day0+5) {
			t.Fatal("expected observed")
		}
		if ix.Observed(missing, day0+5) {
			t.Fatal("unexpected observed")
		}
	}); avg != 0 {
		t.Errorf("Observed allocates %.2f objects/op after Close; want 0", avg)
	}

	if avg := testing.AllocsPerRun(500, func() {
		if f := ix.VisibleFraction(pfx, day0+5); f != 1.0 {
			t.Fatalf("VisibleFraction = %v", f)
		}
	}); avg != 0 {
		t.Errorf("VisibleFraction allocates %.2f objects/op after Close; want 0", avg)
	}
}

// TestOriginTimelineAllocs pins a timeline on a closed index at one
// allocation — the returned slice, sorted and merged in place. The
// daemon's /v1/origins handler pays it per request.
func TestOriginTimelineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	ix := closedTestIndex(t)
	if avg := testing.AllocsPerRun(500, func() {
		if len(ix.OriginTimeline(pfx)) != 2 {
			t.Fatal("expected two spans")
		}
	}); avg != 1 {
		t.Errorf("OriginTimeline allocates %.2f objects/op after Close; want 1", avg)
	}
}

// TestCloseIdempotent pins the satellite contract: a second Close must
// not re-sort, re-intern, or re-clamp anything — same backing arrays,
// same answers, and crucially the open spans stay clamped to the FIRST
// Close's end day.
func TestCloseIdempotent(t *testing.T) {
	ix := NewIndex()
	err := ix.Load("rv1", []mrt.Record{
		peerTable(),
		announce(day0, 0, bgp.Sequence(64500, 100), pfx),
		// Left open: Close(end) clamps it to end+1.
	})
	if err != nil {
		t.Fatal(err)
	}
	ix.Close(day0 + 10)

	tl := ix.OriginTimeline(pfx)
	colBefore := &ix.col[0]
	sortedBefore := &ix.sorted[0]
	prefixesBefore := ix.Prefixes()

	ix.Close(day0 + 99) // must be a no-op, not a re-clamp to day0+100

	if &ix.col[0] != colBefore || &ix.sorted[0] != sortedBefore {
		t.Error("second Close rebuilt the columnar store")
	}
	if got := ix.OriginTimeline(pfx); !reflect.DeepEqual(got, tl) {
		t.Errorf("timeline changed after second Close: %v != %v", got, tl)
	}
	if got := ix.Prefixes(); !reflect.DeepEqual(got, prefixesBefore) {
		t.Errorf("prefixes changed after second Close")
	}
	if ix.Observed(pfx, day0+50) {
		t.Error("open span re-clamped by second Close: still observed past first end")
	}
	if !ix.Observed(pfx, day0+10) {
		t.Error("span lost its first-Close clamp")
	}
}

// TestLoadCollectorPooledReaderMatchesSlice proves a collector loaded
// off a real mrt.Reader in ReuseRecords mode — the mode that recycles
// record storage between Next calls, which is exactly what the
// interning copy discipline has to survive — equals one loaded from the
// record slice, strict and lenient.
func TestLoadCollectorPooledReaderMatchesSlice(t *testing.T) {
	recs := []mrt.Record{
		peerTable(),
		announce(day0, 0, bgp.Sequence(64500, 100), pfx),
		announce(day0+2, 1, bgp.Sequence(64501, 200, 100), pfx),
		withdraw(day0+10, 0, pfx),
		announce(day0+12, 0, bgp.Sequence(64500, 300), pfx),
	}

	want := queriesOf(t, mustLoad(t, func() (*CollectorRIB, error) {
		return LoadCollector("c", &records{recs: recs}, nil)
	}))

	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	for _, src := range []*ingest.Source{nil, {}} {
		opts := []mrt.Option{mrt.ReuseRecords()}
		if src != nil {
			opts = append(opts, mrt.Lenient(), mrt.WithSource(src))
		}
		r := mrt.NewReader(bytes.NewReader(buf.Bytes()), opts...)
		got := queriesOf(t, mustLoad(t, func() (*CollectorRIB, error) {
			return LoadCollector("c", r, src)
		}))
		r.Release()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("lenient=%v: pooled mrt.Reader load differs:\n got %+v\nwant %+v", src != nil, got, want)
		}
		if src != nil && (src.Records != uint64(len(recs)) || src.Skipped() != 0) {
			t.Errorf("clean stream counted %d records, %d skips", src.Records, src.Skipped())
		}
	}
}

func mustLoad(t *testing.T, load func() (*CollectorRIB, error)) *Index {
	t.Helper()
	c, err := load()
	if err != nil {
		t.Fatal(err)
	}
	ix := NewIndex()
	if err := ix.Merge(c); err != nil {
		t.Fatal(err)
	}
	ix.Close(day0 + 100)
	return ix
}

// queriesOf snapshots the externally visible state of an index.
type indexQueries struct {
	Peers     []PeerRef
	Prefixes  []netx.Prefix
	Timeline  []OriginSpan
	Fractions []float64
}

func queriesOf(t *testing.T, ix *Index) indexQueries {
	t.Helper()
	q := indexQueries{
		Peers:    ix.Peers(),
		Prefixes: ix.Prefixes(),
		Timeline: ix.OriginTimeline(pfx),
	}
	for d := day0 - 1; d <= day0+20; d++ {
		q.Fractions = append(q.Fractions, ix.VisibleFraction(pfx, d))
	}
	return q
}
