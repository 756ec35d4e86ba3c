// Crash-recovery property tests for the durable write path — the one a
// generation is written through, Store.WriteShardsLineage: a fail-stop
// crash at *every* operation of the write protocol must leave the
// store, once reopened, serving the old complete generation, the new
// complete generation, or a miss — never a torn shard, never an adopted
// temp, and never a mix of the two writes' shards and manifests.
// External test package: the disk injector lives in faultinject, which
// imports ribsnap.
package ribsnap_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"dropscope/internal/bgp"
	"dropscope/internal/ingest/faultinject"
	"dropscope/internal/mrt"
	"dropscope/internal/netx"
	"dropscope/internal/rib"
	"dropscope/internal/ribsnap"
	"dropscope/internal/timex"
)

// crashDigest keys every generation the crash tests write: the
// interesting rewrites are the ones over a directory of the same name.
var crashDigest = digestOf(0xC4)

// crashIndex builds a closed index with enough prefixes to cut four
// ways.
func crashIndex(t testing.TB) *rib.Index {
	t.Helper()
	day0 := timex.MustParseDay("2019-06-05")
	ix := rib.NewIndex()
	peers := []mrt.Peer{{Addr: netx.AddrFrom4(203, 0, 113, 1), AS: 64500}}
	recs := []mrt.Record{&mrt.PeerIndexTable{When: day0.Time(), Peers: peers}}
	for i := 0; i < 8; i++ {
		recs = append(recs, &mrt.RIBPrefix{When: day0.Time(), Prefix: netx.PrefixFrom(netx.AddrFrom4(10, byte(i), 0, 0), 16),
			Entries: []mrt.RIBEntry{{PeerIndex: 0, OriginatedTime: (day0 - 5).Time(),
				Attrs: bgp.Attrs{Path: bgp.Sequence(64500, bgp.ASN(100+i))}}}})
	}
	if err := ix.Load("rv0", recs); err != nil {
		t.Fatal(err)
	}
	ix.Close(day0 + 10)
	return ix
}

func digestOf(b byte) (d [32]byte) {
	for i := range d {
		d[i] = b
	}
	return d
}

// genSpec is one way the generation can be written: a study window and
// a shard count.
type genSpec struct {
	window timex.Range
	k      int
}

func (g genSpec) String() string { return fmt.Sprintf("K=%d/window=%d", g.k, g.window.Days()) }

var (
	crashDay0 = timex.MustParseDay("2019-06-05")
	windowA   = timex.Range{First: crashDay0, Last: crashDay0 + 10}
	windowB   = timex.Range{First: crashDay0, Last: crashDay0 + 9}
)

// write writes the generation as spec through fsys (nil = the real
// filesystem) into the store under dir.
func (g genSpec) write(t testing.TB, ix *rib.Index, fsys ribsnap.FS, dir string) error {
	t.Helper()
	shards, err := ix.FrozenShards(g.k, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := ribsnap.OpenStore(dir, ribsnap.StoreOptions{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	counts := []ribsnap.CollectorCount{{Collector: "rv0", Records: 9}}
	return st.WriteShardsLineage(shards, g.window, crashDigest, counts, 1, &ribsnap.Lineage{MaxDay: shards[0].MaxDay})
}

// files reads a generation directory: file name -> contents.
func files(t testing.TB, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(ents))
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// reference is the complete generation spec writes, file for file.
func (g genSpec) reference(t testing.TB, ix *rib.Index) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	if err := g.write(t, ix, nil, dir); err != nil {
		t.Fatal(err)
	}
	return files(t, filepath.Join(dir, ribsnap.GenDirName(crashDigest)))
}

func sameFiles(a, b map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for name, body := range a {
		if !bytes.Equal(body, b[name]) {
			return false
		}
	}
	return true
}

// recovered reopens the store under dir — the reboot — and reports
// which of the candidate generations it serves, "" for a miss. Anything
// else (a generation that fails to load, a directory matching no
// candidate file for file, debris in the store) fails the test.
func recovered(t *testing.T, dir string, ix *rib.Index, candidates map[string]map[string][]byte) string {
	t.Helper()
	st, err := ribsnap.OpenStore(dir, ribsnap.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for _, name := range names {
		if name != ribsnap.ManifestName && name != ribsnap.GenDirName(crashDigest) {
			t.Fatalf("debris survived recovery: %v", names)
		}
	}
	ss, err := st.LoadShards(crashDigest, 0)
	if os.IsNotExist(err) {
		return ""
	}
	if err != nil {
		t.Fatalf("recovered generation does not load: %v", err)
	}
	defer ss.Close()
	q, err := ss.Querier(1)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumPrefixes() != ix.NumPrefixes() {
		t.Fatalf("recovered generation holds %d prefixes, want %d", q.NumPrefixes(), ix.NumPrefixes())
	}
	got := files(t, st.GenDirPath(crashDigest))
	for name, want := range candidates {
		if sameFiles(got, want) {
			return name
		}
	}
	var listing []string
	for name := range got {
		listing = append(listing, name)
	}
	sort.Strings(listing)
	t.Fatalf("recovered generation (%d shards, window %v, files %v) is no complete write: a mix",
		ss.NumShards(), ss.Window(), listing)
	return ""
}

// rewrites are the over-existing cases: for K in {1, 4}, a generation
// of the same digest already on disk with the other K, or with another
// window.
func rewrites() [][2]genSpec {
	var out [][2]genSpec
	for _, k := range []int{1, 4} {
		out = append(out,
			[2]genSpec{{windowA, 5 - k}, {windowA, k}},
			[2]genSpec{{windowB, k}, {windowA, k}})
	}
	return out
}

// TestCrashAtEveryWriteStep is the central recovery property: for every
// prefix of the write protocol's operation sequence, a fail-stop crash
// immediately after that prefix — while rewriting a generation that is
// already on disk under the same digest — leaves the reopened store
// serving exactly one complete generation, the old or the new, or
// nothing at all.
func TestCrashAtEveryWriteStep(t *testing.T) {
	ix := crashIndex(t)
	for _, rw := range rewrites() {
		old, next := rw[0], rw[1]
		t.Run(fmt.Sprintf("%v_over_%v", next, old), func(t *testing.T) {
			candidates := map[string]map[string][]byte{"old": old.reference(t, ix), "new": next.reference(t, ix)}

			// A clean instrumented run measures the protocol length.
			cleanDir := t.TempDir()
			if err := old.write(t, ix, nil, cleanDir); err != nil {
				t.Fatal(err)
			}
			clean := faultinject.NewDiskFS(nil, faultinject.DiskOpts{})
			if err := next.write(t, ix, clean, cleanDir); err != nil {
				t.Fatalf("clean write: %v", err)
			}
			nOps := clean.Ops()
			if nOps < 10 {
				t.Fatalf("suspiciously short protocol: %d ops", nOps)
			}

			seen := map[string]bool{}
			for k := 0; k < nOps; k++ {
				dir := t.TempDir()
				if err := old.write(t, ix, nil, dir); err != nil {
					t.Fatalf("k=%d: seeding the old generation: %v", k, err)
				}
				disk := faultinject.NewDiskFS(nil, faultinject.DiskOpts{Crash: true, CrashAfter: k})
				if err := next.write(t, ix, disk, dir); !errors.Is(err, faultinject.ErrCrashed) {
					t.Fatalf("k=%d: want simulated crash, got %v", k, err)
				}
				seen[recovered(t, dir, ix, candidates)] = true
			}
			// The protocol passes through all three states: the crash
			// points cover the old generation, the unpublished window
			// and the new one.
			if !seen["old"] || !seen[""] || !seen["new"] {
				t.Fatalf("over %d crash points recovery saw %v, want old, a miss and new", nOps, seen)
			}
		})
	}
}

// TestCrashWithoutPredecessor covers first-write crashes: no old
// generation exists, so recovery must find either nothing or the
// complete new generation, and no debris.
func TestCrashWithoutPredecessor(t *testing.T) {
	ix := crashIndex(t)
	for _, k := range []int{1, 4} {
		spec := genSpec{windowA, k}
		t.Run(spec.String(), func(t *testing.T) {
			candidates := map[string]map[string][]byte{"new": spec.reference(t, ix)}
			clean := faultinject.NewDiskFS(nil, faultinject.DiskOpts{})
			if err := spec.write(t, ix, clean, t.TempDir()); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < clean.Ops(); k++ {
				dir := t.TempDir()
				disk := faultinject.NewDiskFS(nil, faultinject.DiskOpts{Crash: true, CrashAfter: k})
				if err := spec.write(t, ix, disk, dir); !errors.Is(err, faultinject.ErrCrashed) {
					t.Fatalf("k=%d: want simulated crash, got %v", k, err)
				}
				recovered(t, dir, ix, candidates)
			}
		})
	}
}

// TestWriteENOSPC: an exhausted disk fails the write, and recovery
// finds the old generation or a miss, never a partial one.
func TestWriteENOSPC(t *testing.T) {
	ix := crashIndex(t)
	for _, rw := range rewrites() {
		old, next := rw[0], rw[1]
		t.Run(fmt.Sprintf("%v_over_%v", next, old), func(t *testing.T) {
			dir := t.TempDir()
			if err := old.write(t, ix, nil, dir); err != nil {
				t.Fatal(err)
			}
			disk := faultinject.NewDiskFS(nil, faultinject.DiskOpts{SpaceBytes: 256})
			if err := next.write(t, ix, disk, dir); !errors.Is(err, faultinject.ErrNoSpace) {
				t.Fatalf("want ErrNoSpace, got %v", err)
			}
			recovered(t, dir, ix, map[string]map[string][]byte{"old": old.reference(t, ix)})
		})
	}
}

// TestWriteShortWrite: a half-written buffer fails the write rather
// than producing a silently truncated shard that could ever be
// published.
func TestWriteShortWrite(t *testing.T) {
	ix := crashIndex(t)
	for _, k := range []int{1, 4} {
		spec := genSpec{windowA, k}
		t.Run(spec.String(), func(t *testing.T) {
			dir := t.TempDir()
			disk := faultinject.NewDiskFS(nil, faultinject.DiskOpts{ShortEvery: 3})
			if err := spec.write(t, ix, disk, dir); !errors.Is(err, io.ErrShortWrite) {
				t.Fatalf("want ErrShortWrite, got %v", err)
			}
			if got := recovered(t, dir, ix, nil); got != "" {
				t.Fatalf("short write published a generation")
			}
		})
	}
}

// TestWriteBitFlips: silent write-time corruption survives the write
// call (the disk lied) but can never be loaded — the CRCs of the shard
// manifest and of every shard catch it.
func TestWriteBitFlips(t *testing.T) {
	ix := crashIndex(t)
	typed := func(err error) bool {
		return errors.Is(err, ribsnap.ErrCorrupt) || errors.Is(err, ribsnap.ErrTruncated) ||
			errors.Is(err, ribsnap.ErrStale) || errors.Is(err, ribsnap.ErrVersion)
	}
	for _, k := range []int{1, 4} {
		spec := genSpec{windowA, k}
		t.Run(spec.String(), func(t *testing.T) {
			dir := t.TempDir()
			disk := faultinject.NewDiskFS(nil, faultinject.DiskOpts{FlipBits: 4, FlipSeed: 7})
			if err := spec.write(t, ix, disk, dir); err != nil {
				t.Fatalf("silent corruption must not fail the write: %v", err)
			}
			gen := filepath.Join(dir, ribsnap.GenDirName(crashDigest))
			if _, err := ribsnap.OpenShardSet(gen, crashDigest, 0); !typed(err) {
				t.Fatalf("corrupted generation: open = %v, want a typed failure", err)
			}
			for i := 0; i < k; i++ {
				if s, err := ribsnap.Load(filepath.Join(gen, ribsnap.ShardFileName(i)), crashDigest); !typed(err) {
					if s != nil {
						s.Close()
					}
					t.Fatalf("shard %d: load = %v, want a typed failure", i, err)
				}
			}
			// Nor does recovery ever serve it.
			st, err := ribsnap.OpenStore(dir, ribsnap.StoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if ss, err := st.LoadShards(crashDigest, 0); err == nil {
				ss.Close()
				t.Fatal("recovery served a corrupted generation")
			}
		})
	}
}
