package delta

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dropscope/internal/bgp"
	"dropscope/internal/mrt"
	"dropscope/internal/netx"
	"dropscope/internal/rib"
	"dropscope/internal/ribsnap"
	"dropscope/internal/timex"
)

var day0 = timex.MustParseDay("2019-06-05")

func peerAt(n byte) netx.Addr { return netx.AddrFrom4(203, 0, 113, n) }

func announce(d timex.Day, addr netx.Addr, as bgp.ASN, path bgp.ASPath, ps ...netx.Prefix) mrt.Record {
	return &mrt.BGP4MPMessage{
		When: d.Time(), PeerAS: as, PeerAddr: addr, LocalAS: 6447,
		Update: &bgp.Update{
			Attrs: bgp.Attrs{Origin: bgp.OriginIGP, Path: path, NextHop: addr, HasNextHop: true},
			NLRI:  ps,
		},
	}
}

func withdraw(d timex.Day, addr netx.Addr, as bgp.ASN, ps ...netx.Prefix) mrt.Record {
	return &mrt.BGP4MPMessage{
		When: d.Time(), PeerAS: as, PeerAddr: addr, LocalAS: 6447,
		Update: &bgp.Update{Withdrawn: ps},
	}
}

// stream is one collector's records split at the append boundary.
type stream struct {
	collector string
	base      []mrt.Record
	suffix    []mrt.Record
}

func scenario() (streams []stream, baseEnd, newEnd timex.Day) {
	var (
		pfxA = netx.MustParsePrefix("10.0.0.0/8")
		pfxB = netx.MustParsePrefix("172.16.0.0/12")
		pfxC = netx.MustParsePrefix("192.0.2.0/24")
		pfxE = netx.MustParsePrefix("8.0.0.0/8")

		pathX = bgp.Sequence(64500, 100)
		pathY = bgp.Sequence(64501, 100)
		pathZ = bgp.Sequence(64500, 200, 300)
	)
	baseEnd = day0 + 9
	newEnd = day0 + 12
	rv1 := stream{
		collector: "rv1",
		base: []mrt.Record{
			announce(day0, peerAt(1), 64500, pathX, pfxA, pfxB),
			announce(day0+1, peerAt(2), 64501, pathY, pfxA),
			withdraw(day0+3, peerAt(2), 64501, pfxA),
		},
		suffix: []mrt.Record{
			announce(day0+10, peerAt(1), 64500, pathX, pfxA), // same-path continuation
			announce(day0+11, peerAt(1), 64500, pathZ, pfxB), // path change closes base-open
			announce(day0+10, peerAt(3), 64502, pathY, pfxC), // new peer, new prefix
			announce(day0+11, peerAt(1), 64500, pathX, pfxE),
			withdraw(day0+12, peerAt(1), 64500, pfxE), // suffix flap
		},
	}
	// A collector that only exists in the suffix (came online later).
	rv0 := stream{
		collector: "rv0",
		suffix: []mrt.Record{
			announce(day0+10, peerAt(20), 65020, bgp.Sequence(65020, 100), pfxA),
		},
	}
	// A collector with no appended data.
	rv3 := stream{
		collector: "rv3",
		base: []mrt.Record{
			announce(day0+1, peerAt(30), 65030, bgp.Sequence(65030, 100), pfxB),
		},
	}
	return []stream{rv1, rv0, rv3}, baseEnd, newEnd
}

// writeArchive writes each stream's base records as dir/<collector>.mrt.
func writeArchive(t *testing.T, dir string, streams []stream, suffix bool) {
	t.Helper()
	for _, s := range streams {
		recs := s.base
		if suffix {
			recs = s.suffix
		}
		if len(recs) == 0 && !suffix {
			continue
		}
		flags := os.O_CREATE | os.O_WRONLY
		if suffix {
			if len(recs) == 0 {
				continue
			}
			flags |= os.O_APPEND
		} else {
			flags |= os.O_TRUNC
		}
		f, err := os.OpenFile(filepath.Join(dir, s.collector+".mrt"), flags, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		w := mrt.NewWriter(f)
		for _, rec := range recs {
			if err := w.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func coldFrozen(t *testing.T, streams []stream, full bool, end timex.Day) *rib.Frozen {
	t.Helper()
	sorted := append([]stream(nil), streams...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].collector < sorted[j].collector })
	ix := rib.NewIndex()
	for _, s := range sorted {
		recs := append([]mrt.Record(nil), s.base...)
		if full {
			recs = append(recs, s.suffix...)
		}
		if len(recs) == 0 {
			continue
		}
		if err := ix.Load(s.collector, recs); err != nil {
			t.Fatal(err)
		}
	}
	ix.Close(end)
	f, err := ix.Frozen()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func requireEquivalent(t *testing.T, cold, merged *rib.Frozen) {
	t.Helper()
	if len(merged.Peers) != len(cold.Peers) {
		t.Fatalf("peers: got %d, want %d", len(merged.Peers), len(cold.Peers))
	}
	for i := range cold.Peers {
		if merged.Peers[i] != cold.Peers[i] {
			t.Fatalf("peer %d: got %+v, want %+v", i, merged.Peers[i], cold.Peers[i])
		}
	}
	if len(merged.Prefixes) != len(cold.Prefixes) {
		t.Fatalf("prefixes: got %d, want %d", len(merged.Prefixes), len(cold.Prefixes))
	}
	for i := range cold.Prefixes {
		if merged.Prefixes[i] != cold.Prefixes[i] {
			t.Fatalf("prefix %d: got %v, want %v", i, merged.Prefixes[i], cold.Prefixes[i])
		}
	}
	if len(merged.Col) != len(cold.Col) {
		t.Fatalf("spans: got %d, want %d", len(merged.Col), len(cold.Col))
	}
	for i := range cold.Col {
		c, m := cold.Col[i], merged.Col[i]
		if m.Prefix != c.Prefix || m.Peer != c.Peer || m.From != c.From || m.To != c.To {
			t.Fatalf("span %d: got %+v, want %+v", i, m, c)
		}
		if !bgp.PathEqual(merged.Paths[m.Path], cold.Paths[c.Path]) {
			t.Fatalf("span %d path: got %v, want %v", i, merged.Paths[m.Path], cold.Paths[c.Path])
		}
	}
	if merged.MaxDay != cold.MaxDay {
		t.Fatalf("MaxDay: got %d, want %d", merged.MaxDay, cold.MaxDay)
	}
	for i := range cold.EvDay {
		if merged.EvDay[i] != cold.EvDay[i] || merged.EvCount[i] != cold.EvCount[i] {
			t.Fatalf("event %d: got (%d,%d), want (%d,%d)", i,
				merged.EvDay[i], merged.EvCount[i], cold.EvDay[i], cold.EvCount[i])
		}
	}
}

// setup writes the base archive, freezes the base index, captures its
// lineage, then appends the suffix records. It returns everything Build
// needs plus the streams for cold comparison.
func setup(t *testing.T) (dir string, streams []stream, base *rib.Frozen, lin *ribsnap.Lineage, counts []ribsnap.CollectorCount, baseWindow, window timex.Range) {
	t.Helper()
	dir = t.TempDir()
	var baseEnd, newEnd timex.Day
	streams, baseEnd, newEnd = scenario()
	writeArchive(t, dir, streams, false)

	base = coldFrozen(t, streams, false, baseEnd)
	cursors, err := ribsnap.ArchiveCursors(dir)
	if err != nil {
		t.Fatal(err)
	}
	lin = &ribsnap.Lineage{MaxDay: base.MaxDay, Cursors: cursors}
	for _, s := range streams {
		if len(s.base) > 0 {
			counts = append(counts, ribsnap.CollectorCount{Collector: s.collector, Records: uint64(len(s.base))})
		}
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i].Collector < counts[j].Collector })

	writeArchive(t, dir, streams, true)
	baseWindow = timex.Range{First: day0, Last: baseEnd}
	window = timex.Range{First: day0, Last: newEnd}
	return
}

func TestBuildMatchesColdRebuild(t *testing.T) {
	dir, streams, base, lin, counts, baseWindow, window := setup(t)
	res, err := Build(dir, base, lin, counts, baseWindow, window, [32]byte{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	cold := coldFrozen(t, streams, true, window.Last)
	requireEquivalent(t, cold, res.Frozen)

	// Counts must equal base plus strictly decoded suffix records,
	// sorted by collector, including the suffix-only collector.
	want := map[string]uint64{}
	for _, s := range streams {
		if n := uint64(len(s.base) + len(s.suffix)); n > 0 {
			want[s.collector] = n
		}
	}
	if len(res.Counts) != len(want) {
		t.Fatalf("counts: got %d collectors, want %d", len(res.Counts), len(want))
	}
	for i, c := range res.Counts {
		if i > 0 && res.Counts[i-1].Collector >= c.Collector {
			t.Fatalf("counts not sorted: %q >= %q", res.Counts[i-1].Collector, c.Collector)
		}
		if want[c.Collector] != c.Records {
			t.Fatalf("counts[%s]: got %d, want %d", c.Collector, c.Records, want[c.Collector])
		}
	}

	if res.Lineage.MaxDay != res.Frozen.MaxDay {
		t.Fatalf("lineage MaxDay %d != frozen MaxDay %d", res.Lineage.MaxDay, res.Frozen.MaxDay)
	}
	// New cursors must match a fresh hash of the grown archive.
	fresh, err := ribsnap.ArchiveCursors(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh) != len(res.Lineage.Cursors) {
		t.Fatalf("cursors: got %d, want %d", len(res.Lineage.Cursors), len(fresh))
	}
	for i := range fresh {
		if fresh[i] != res.Lineage.Cursors[i] {
			t.Fatalf("cursor %d: got %+v, want %+v", i, res.Lineage.Cursors[i], fresh[i])
		}
	}
}

// TestBuildChained verifies a second delta on top of the first: the
// generation chain base -> delta1 -> delta2 must still match a cold
// rebuild of the whole archive.
func TestBuildChained(t *testing.T) {
	dir, streams, base, lin, counts, baseWindow, window := setup(t)
	res1, err := Build(dir, base, lin, counts, baseWindow, window, [32]byte{1})
	if err != nil {
		t.Fatal(err)
	}
	// Grow the archive again.
	more := announce(window.Last+2, peerAt(40), 65040, bgp.Sequence(65040, 7), netx.MustParsePrefix("100.64.0.0/10"))
	f, err := os.OpenFile(filepath.Join(dir, "rv1.mrt"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := mrt.NewWriter(f).Write(more); err != nil {
		t.Fatal(err)
	}
	f.Close()
	window2 := timex.Range{First: window.First, Last: window.Last + 2}
	res2, err := Build(dir, res1.Frozen, res1.Lineage, res1.Counts, window, window2, [32]byte{2})
	if err != nil {
		t.Fatalf("chained Build: %v", err)
	}
	for i := range streams {
		if streams[i].collector == "rv1" {
			streams[i].suffix = append(streams[i].suffix, more)
		}
	}
	requireEquivalent(t, coldFrozen(t, streams, true, window2.Last), res2.Frozen)
}

func TestBuildRefusesTamperedArchive(t *testing.T) {
	t.Run("rewritten prefix", func(t *testing.T) {
		dir, _, base, lin, counts, baseWindow, window := setup(t)
		path := filepath.Join(dir, "rv1.mrt")
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[4] ^= 0xff // inside the consumed prefix
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Build(dir, base, lin, counts, baseWindow, window, [32]byte{}); err == nil ||
			!strings.Contains(err.Error(), "not append-only") {
			t.Fatalf("Build = %v, want append-only refusal", err)
		}
	})
	t.Run("truncated below cursor", func(t *testing.T) {
		dir, _, base, lin, counts, baseWindow, window := setup(t)
		path := filepath.Join(dir, "rv1.mrt")
		if err := os.Truncate(path, 8); err != nil {
			t.Fatal(err)
		}
		if _, err := Build(dir, base, lin, counts, baseWindow, window, [32]byte{}); err == nil ||
			!strings.Contains(err.Error(), "not append-only") {
			t.Fatalf("Build = %v, want append-only refusal", err)
		}
	})
	t.Run("collector removed", func(t *testing.T) {
		dir, _, base, lin, counts, baseWindow, window := setup(t)
		if err := os.Remove(filepath.Join(dir, "rv3.mrt")); err != nil {
			t.Fatal(err)
		}
		if _, err := Build(dir, base, lin, counts, baseWindow, window, [32]byte{}); err == nil ||
			!strings.Contains(err.Error(), "removed from archive") {
			t.Fatalf("Build = %v, want removed-collector refusal", err)
		}
	})
	t.Run("corrupt suffix", func(t *testing.T) {
		dir, _, base, lin, counts, baseWindow, window := setup(t)
		f, err := os.OpenFile(filepath.Join(dir, "rv1.mrt"), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef}); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if _, err := Build(dir, base, lin, counts, baseWindow, window, [32]byte{}); err == nil {
			t.Fatal("Build over a corrupt suffix should fail (strict decode)")
		}
	})
}

func TestBuildValidatesInputs(t *testing.T) {
	dir, _, base, lin, counts, baseWindow, window := setup(t)
	moved := baseWindow
	moved.First++
	if _, err := Build(dir, base, lin, counts, moved, window, [32]byte{}); err == nil ||
		!strings.Contains(err.Error(), "window start moved") {
		t.Fatalf("Build with moved start = %v", err)
	}
	shrunk := baseWindow
	shrunk.Last = baseWindow.Last - 1
	if _, err := Build(dir, base, lin, counts, baseWindow, shrunk, [32]byte{}); err == nil ||
		!strings.Contains(err.Error(), "backwards") {
		t.Fatalf("Build with shrunk window = %v", err)
	}
}
