package ribsnap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"dropscope/internal/bgp"
	"dropscope/internal/fsio"
	"dropscope/internal/mrt"
	"dropscope/internal/netx"
	"dropscope/internal/rib"
	"dropscope/internal/timex"
)

var day0 = timex.MustParseDay("2019-06-05")

func at(d timex.Day) time.Time { return d.Time() }

// splitmix64 is the deterministic PRNG used to randomize worlds.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix64) intn(n int) int { return int(s.next() % uint64(n)) }

// randomIndex builds a closed index over a randomized world: a few
// collectors, each with a peer table, RIB seed records, and
// announce/withdraw churn over a mix of shared and collector-local
// prefixes (including covering/covered pairs, MOAS, and open spans).
func randomIndex(t testing.TB, seed uint64) (*rib.Index, timex.Range) {
	t.Helper()
	rng := splitmix64(seed)
	window := timex.Range{First: day0, Last: day0 + 60}

	ix := rib.NewIndex()
	nCollectors := 2 + rng.intn(3)
	shared := []netx.Prefix{
		netx.MustParsePrefix("192.0.2.0/24"),
		netx.MustParsePrefix("192.0.2.0/25"), // covered by the /24
		netx.MustParsePrefix("198.51.100.0/24"),
	}
	for c := 0; c < nCollectors; c++ {
		name := fmt.Sprintf("rv%d", c)
		peers := make([]mrt.Peer, 2+rng.intn(2))
		for i := range peers {
			peers[i] = mrt.Peer{
				Addr: netx.AddrFrom4(203, 0, byte(113+c), byte(1+i)),
				AS:   bgp.ASN(64500 + 10*c + i),
			}
		}
		recs := []mrt.Record{&mrt.PeerIndexTable{When: at(day0), Peers: peers}}
		for i, p := range peers {
			recs = append(recs, &mrt.RIBPrefix{When: at(day0), Prefix: shared[0],
				Entries: []mrt.RIBEntry{{PeerIndex: uint16(i), OriginatedTime: at(day0 - 5),
					Attrs: bgp.Attrs{Path: bgp.Sequence(p.AS, bgp.ASN(100+rng.intn(3)))}}}})
		}
		nEvents := 10 + rng.intn(20)
		day := day0
		for e := 0; e < nEvents; e++ {
			day += timex.Day(rng.intn(4))
			peer := peers[rng.intn(len(peers))]
			var pfx netx.Prefix
			if rng.intn(3) == 0 {
				pfx = shared[rng.intn(len(shared))]
			} else {
				pfx = netx.PrefixFrom(netx.AddrFrom4(10, byte(c), byte(rng.intn(4)), 0), 24-rng.intn(9))
			}
			if rng.intn(4) == 0 {
				recs = append(recs, &mrt.BGP4MPMessage{When: at(day), PeerAS: peer.AS, PeerAddr: peer.Addr,
					LocalAS: 6447, Update: &bgp.Update{Withdrawn: []netx.Prefix{pfx}}})
			} else {
				path := bgp.Sequence(peer.AS, bgp.ASN(3356+rng.intn(2)), bgp.ASN(200+rng.intn(5)))
				recs = append(recs, &mrt.BGP4MPMessage{When: at(day), PeerAS: peer.AS, PeerAddr: peer.Addr,
					LocalAS: 6447, Update: &bgp.Update{Attrs: bgp.Attrs{Path: path}, NLRI: []netx.Prefix{pfx}}})
			}
		}
		if err := ix.Load(name, recs); err != nil {
			t.Fatal(err)
		}
	}
	ix.Close(window.Last)
	return ix, window
}

// lineageOf is the lineage a fixture snapshot carries: the index's max
// record day, no archive cursors.
func lineageOf(f *rib.Frozen) *Lineage { return &Lineage{MaxDay: f.MaxDay} }

func writeTestSnapshot(t testing.TB, ix *rib.Index, window timex.Range, digest [32]byte) string {
	t.Helper()
	frozen, err := ix.Frozen()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.ribsnap")
	counts := []CollectorCount{{Collector: "rv0", Records: 42}, {Collector: "rv1", Records: 7}}
	if err := WriteLineageFS(OS, path, frozen, window, digest, counts, lineageOf(frozen)); err != nil {
		t.Fatal(err)
	}
	return path
}

// probeDays are the days queries compare on: before, inside, and after
// the window.
func probeDays() []timex.Day {
	return []timex.Day{day0 - 2, day0, day0 + 3, day0 + 11, day0 + 30, day0 + 61, day0 + 90}
}

// TestRoundTripProperty is the encode→decode property over randomized
// worlds: the reloaded index must answer Observed, VisibleFraction,
// OriginTimeline — and the covering and per-peer queries layered on the
// same state — identically to the index the snapshot was taken from.
func TestRoundTripProperty(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			ix, window := randomIndex(t, seed)
			digest := [32]byte{1, 2, 3, byte(seed)}
			path := writeTestSnapshot(t, ix, window, digest)

			snap, err := Load(path, digest)
			if err != nil {
				t.Fatal(err)
			}
			defer snap.Close()
			got := snap.Index

			if snap.Window != window {
				t.Errorf("window %v != %v", snap.Window, window)
			}
			if !reflect.DeepEqual(got.Peers(), ix.Peers()) {
				t.Fatalf("peers diverged:\ncold %v\nwarm %v", ix.Peers(), got.Peers())
			}
			cp, wp := ix.Prefixes(), got.Prefixes()
			if !reflect.DeepEqual(cp, wp) {
				t.Fatalf("prefixes diverged:\ncold %v\nwarm %v", cp, wp)
			}
			probes := append(append([]netx.Prefix{}, cp...),
				netx.MustParsePrefix("192.0.2.0/26"),   // covered by announced space, never announced
				netx.MustParsePrefix("192.0.0.0/16"),   // covers announced space
				netx.MustParsePrefix("203.0.113.0/24"), // unrelated
			)
			for _, p := range probes {
				if !reflect.DeepEqual(ix.OriginTimeline(p), got.OriginTimeline(p)) {
					t.Errorf("%s: OriginTimeline diverged", p)
				}
				cf, cok := ix.FirstObserved(p)
				wf, wok := got.FirstObserved(p)
				if cf != wf || cok != wok {
					t.Errorf("%s: FirstObserved (%v,%v) != (%v,%v)", p, cf, cok, wf, wok)
				}
				for _, d := range probeDays() {
					if c, w := ix.Observed(p, d), got.Observed(p, d); c != w {
						t.Errorf("%s day %v: Observed %v != %v", p, d, c, w)
					}
					if c, w := ix.VisibleFraction(p, d), got.VisibleFraction(p, d); c != w {
						t.Errorf("%s day %v: VisibleFraction %v != %v", p, d, c, w)
					}
					if c, w := ix.AnyOverlapObserved(p, d), got.AnyOverlapObserved(p, d); c != w {
						t.Errorf("%s day %v: AnyOverlapObserved %v != %v", p, d, c, w)
					}
					if !reflect.DeepEqual(ix.PeersObserving(p, d), got.PeersObserving(p, d)) {
						t.Errorf("%s day %v: PeersObserving diverged", p, d)
					}
					co, cok := ix.OriginAt(p, d)
					wo, wok := got.OriginAt(p, d)
					if co != wo || cok != wok {
						t.Errorf("%s day %v: OriginAt (%v,%v) != (%v,%v)", p, d, co, cok, wo, wok)
					}
					for _, ref := range ix.Peers() {
						if c, w := ix.PeerObserved(ref, p, d), got.PeerObserved(ref, p, d); c != w {
							t.Errorf("%s day %v peer %v: PeerObserved %v != %v", p, d, ref, c, w)
						}
					}
				}
			}
			for _, d := range probeDays() {
				if !reflect.DeepEqual(ix.MOASConflicts(d), got.MOASConflicts(d)) {
					t.Errorf("day %v: MOASConflicts diverged", d)
				}
				if !reflect.DeepEqual(ix.RoutedSpace(d, 1), got.RoutedSpace(d, 1)) {
					t.Errorf("day %v: RoutedSpace diverged", d)
				}
			}
			if !reflect.DeepEqual(ix.ByOrigin(), got.ByOrigin()) {
				t.Error("ByOrigin diverged")
			}
			wantCounts := []CollectorCount{{Collector: "rv0", Records: 42}, {Collector: "rv1", Records: 7}}
			if !reflect.DeepEqual(snap.Counts, wantCounts) {
				t.Errorf("counts %v != %v", snap.Counts, wantCounts)
			}
		})
	}
}

// TestLoadTruncated cuts the file at many points; every cut must fail
// with a typed error — never a successfully loaded wrong index.
func TestLoadTruncated(t *testing.T) {
	ix, window := randomIndex(t, 3)
	digest := [32]byte{9}
	path := writeTestSnapshot(t, ix, window, digest)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cuts := []int{0, 1, headerSize - 1, headerSize, headerSize + 5, len(whole) / 2, len(whole) - 1}
	for _, cut := range cuts {
		trunc := filepath.Join(t.TempDir(), "trunc.ribsnap")
		if err := os.WriteFile(trunc, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(trunc, digest)
		if err == nil {
			t.Fatalf("cut at %d: Load succeeded on a truncated snapshot", cut)
		}
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
			t.Errorf("cut at %d: error %v, want ErrTruncated or ErrCorrupt", cut, err)
		}
	}
}

// TestLoadFlippedBytes flips single bytes across the whole file; every
// flip must surface as some typed validation error.
func TestLoadFlippedBytes(t *testing.T) {
	ix, window := randomIndex(t, 4)
	digest := [32]byte{7}
	path := writeTestSnapshot(t, ix, window, digest)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	typed := []error{ErrTruncated, ErrCorrupt, ErrVersion, ErrStale}
	for off := 0; off < len(whole); off += 1 + off/16 {
		flipped := append([]byte(nil), whole...)
		flipped[off] ^= 0x40
		target := filepath.Join(dir, "flip.ribsnap")
		if err := os.WriteFile(target, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(target, digest)
		if err == nil {
			t.Fatalf("flip at %d: Load succeeded on a corrupted snapshot", off)
		}
		ok := false
		for _, want := range typed {
			if errors.Is(err, want) {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("flip at %d: untyped error %v", off, err)
		}
	}
}

// TestLoadStaleDigest proves a digest mismatch — the archive changed
// since the snapshot — fails with ErrStale.
func TestLoadStaleDigest(t *testing.T) {
	ix, window := randomIndex(t, 5)
	digest := [32]byte{1}
	path := writeTestSnapshot(t, ix, window, digest)
	if _, err := Load(path, [32]byte{2}); !errors.Is(err, ErrStale) {
		t.Fatalf("error %v, want ErrStale", err)
	}
}

// TestLoadBadVersion proves version skew fails with ErrVersion.
func TestLoadBadVersion(t *testing.T) {
	ix, window := randomIndex(t, 6)
	digest := [32]byte{1}
	path := writeTestSnapshot(t, ix, window, digest)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	whole[8] = 99 // version field
	if err := os.WriteFile(path, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path, digest); !errors.Is(err, ErrVersion) {
		t.Fatalf("error %v, want ErrVersion", err)
	}
}

// TestLineageRequired: every snapshot carries its lineage. A write
// without one is refused before anything reaches disk, and a file
// missing either lineage section fails to load as corrupt.
func TestLineageRequired(t *testing.T) {
	ix, window := randomIndex(t, 7)
	frozen, err := ix.Frozen()
	if err != nil {
		t.Fatal(err)
	}
	digest := [32]byte{3}
	path := filepath.Join(t.TempDir(), "index.ribsnap")
	if err := WriteLineageFS(OS, path, frozen, window, digest, nil, nil); err == nil {
		t.Fatal("WriteLineageFS accepted a nil lineage")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("refused write left a file: %v", err)
	}
	st, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteShardsLineage([]*rib.Frozen{frozen}, window, digest, nil, 0, nil); err == nil {
		t.Fatal("WriteShardsLineage accepted a nil lineage")
	}
	if st.HasShards(digest) || st.Status(digest) != GenUnknown {
		t.Fatalf("refused write left a generation (status %v)", st.Status(digest))
	}

	whole, err := os.ReadFile(writeTestSnapshot(t, ix, window, digest))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decode(whole, digest); err != nil {
		t.Fatalf("intact snapshot: %v", err)
	}
	// Hide sections by renaming their table entries to ids decode does
	// not know, then reseal the payload CRC so the section check fires.
	for _, hide := range [][]uint32{{secLineage}, {secCursors}, {secLineage, secCursors}} {
		b := append([]byte(nil), whole...)
		payload := b[headerSize : headerSize+binary.LittleEndian.Uint64(b[48:56])]
		for i := 0; i < int(binary.LittleEndian.Uint32(b[12:16])); i++ {
			e := payload[i*tableEntry:]
			if slices.Contains(hide, binary.LittleEndian.Uint32(e)) {
				binary.LittleEndian.PutUint32(e, 100+uint32(i))
			}
		}
		binary.LittleEndian.PutUint32(b[56:60], crc32.Checksum(payload, fsio.Castagnoli))
		if _, err := decode(b, digest); !errors.Is(err, ErrCorrupt) {
			t.Errorf("sections %v hidden: error %v, want ErrCorrupt", hide, err)
		}
	}
}

// TestLoadMissing keeps the not-yet-written case distinguishable: a
// missing file is a plain fs error, not a corruption error.
func TestLoadMissing(t *testing.T) {
	_, err := Load(filepath.Join(t.TempDir(), "absent.ribsnap"), [32]byte{})
	if !os.IsNotExist(err) {
		t.Fatalf("error %v, want fs.ErrNotExist", err)
	}
}

// TestDigestMRT pins the digest's sensitivity: same bytes same digest,
// any content or name change a different one.
func TestDigestMRT(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("a.mrt", "aaaa")
	write("b.mrt", "bbbb")
	d1, err := DigestMRT(dir)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := DigestMRT(dir)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatal("digest not deterministic")
	}
	write("b.mrt", "bbbc")
	d3, err := DigestMRT(dir)
	if err != nil {
		t.Fatal(err)
	}
	if d3 == d1 {
		t.Fatal("content change did not change digest")
	}
	write("b.mrt", "bbbb")
	write("c.txt", "ignored")
	d4, err := DigestMRT(dir)
	if err != nil {
		t.Fatal(err)
	}
	if d4 != d1 {
		t.Fatal("non-.mrt file changed the digest")
	}
}
