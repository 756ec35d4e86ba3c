package loader_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"dropscope"
	"dropscope/internal/archive"
	"dropscope/internal/ingest"
	"dropscope/internal/ingest/faultinject"
	"dropscope/internal/loader"
	"dropscope/internal/rib"
	"dropscope/internal/ribsnap"
	"dropscope/internal/scenario"
	"dropscope/internal/serve"
	"dropscope/internal/timex"
)

// fixture is one generated world in every archive state the matrix
// visits. Only mrt/ differs between states; the text archives are
// thinned to a few snapshots each (the loader parses them on every
// route, and the matrix runs several hundred loads) and shared by hard
// link.
type fixture struct {
	window timex.Range
	text   string            // archive dir holding the thinned text subdirectories
	mrt    map[string]string // state name -> directory of *.mrt files
	victim string            // the collector the rewritten/removed/damaged states touch
}

var (
	fixOnce sync.Once
	fix     fixture
	fixErr  error
	fixRoot string
)

func TestMain(m *testing.M) {
	root, err := os.MkdirTemp("", "loader-fixture-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fixRoot = root
	code := m.Run()
	os.RemoveAll(root)
	os.Exit(code)
}

func writeWorld(dir string, w *scenario.World) error {
	return archive.Write(dir, &archive.Bundle{
		MRT: w.MRT, DROP: w.DROP, SBL: w.SBL, IRR: w.IRR, RPKI: w.RPKI, RIR: w.RIR,
	})
}

// thin keeps the first keep entries of dir.
func thin(dir string, keep int) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents[min(keep, len(ents)):] {
		if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func buildFixture() (fixture, error) {
	p := scenario.DefaultParams()
	p.Scale = 16384
	w, err := scenario.Generate(p)
	if err != nil {
		return fixture{}, err
	}
	f := fixture{window: p.Window, text: filepath.Join(fixRoot, "base"), mrt: map[string]string{}}
	if err := writeWorld(f.text, w); err != nil {
		return f, err
	}
	for sub, keep := range map[string]int{"rirstats": 1, "drop": 4, "rpki": 4} {
		if err := thin(filepath.Join(f.text, sub), keep); err != nil {
			return f, err
		}
	}
	f.mrt["base"] = filepath.Join(f.text, "mrt")

	// The encoder is deterministic, so after amplification every file's
	// previous content is a byte prefix of its new content: an append.
	if n, _ := scenario.AmplifyVolume(w, 8, 97); n == 0 {
		return f, fmt.Errorf("AmplifyVolume appended nothing")
	}
	grown := filepath.Join(fixRoot, "grown")
	if err := writeWorld(grown, w); err != nil {
		return f, err
	}
	f.mrt["grown"] = filepath.Join(grown, "mrt")

	names, err := filepath.Glob(filepath.Join(f.mrt["base"], "*.mrt"))
	if err != nil || len(names) < 3 {
		return f, fmt.Errorf("fixture has %d collectors (%v)", len(names), err)
	}
	f.victim = filepath.Base(names[0])
	derive := func(state, from string, edit func(path string) error) error {
		dir := filepath.Join(fixRoot, state)
		f.mrt[state] = dir
		if err := os.CopyFS(dir, os.DirFS(f.mrt[from])); err != nil {
			return err
		}
		return edit(filepath.Join(dir, f.victim))
	}
	rewrite := func(path string, edit func([]byte) []byte) error {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(path, edit(raw), 0o644)
	}
	// Grown, but with a byte the previous generation consumed changed
	// (a timestamp byte: the record stays decodable).
	if err := derive("rewritten", "grown", func(path string) error {
		return rewrite(path, func(b []byte) []byte { b[2] ^= 0x01; return b })
	}); err != nil {
		return f, err
	}
	if err := derive("removed", "base", os.Remove); err != nil {
		return f, err
	}
	if err := derive("damaged", "base", func(path string) error {
		return rewrite(path, faultinject.New(1000).DamageMRT)
	}); err != nil {
		return f, err
	}
	return f, nil
}

func getFixture(t *testing.T) fixture {
	t.Helper()
	fixOnce.Do(func() { fix, fixErr = buildFixture() })
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fix
}

// linkTree hard-links every file under src into dst.
func linkTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		return os.Link(path, filepath.Join(dst, rel))
	})
	if err != nil {
		t.Fatal(err)
	}
}

// archiveDir assembles a private archive directory: the shared text
// archives plus the named MRT state.
func (f fixture) archiveDir(t *testing.T, state string) string {
	t.Helper()
	dir := t.TempDir()
	for _, sub := range []string{"drop", "sbl", "irr", "rpki", "rirstats"} {
		linkTree(t, filepath.Join(f.text, sub), filepath.Join(dir, sub))
	}
	f.setMRT(t, dir, state)
	return dir
}

// setMRT replaces dir's MRT files with the named state's — what an
// operator's rsync of a newer (or broken) collector dump does.
func (f fixture) setMRT(t *testing.T, dir, state string) {
	t.Helper()
	if err := os.RemoveAll(filepath.Join(dir, "mrt")); err != nil {
		t.Fatal(err)
	}
	linkTree(t, f.mrt[state], filepath.Join(dir, "mrt"))
}

func (f fixture) digest(t *testing.T, state string) [32]byte {
	t.Helper()
	d, err := ribsnap.DigestMRT(f.mrt[state])
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// flipMiddle flips one bit in the middle of the file, through a fresh
// inode so a mapping of the old one is unaffected.
func flipMiddle(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// reference is the oracle of every cell: a cache-off, unsharded cold
// build of the same archive state under the same strictness.
type reference struct {
	l   *loader.Loaded
	err error
}

var (
	refMu sync.Mutex
	refs  = map[string]reference{}
)

func (f fixture) reference(t *testing.T, state string, window timex.Range, strict bool) reference {
	t.Helper()
	key := fmt.Sprint(state, window, strict)
	refMu.Lock()
	defer refMu.Unlock()
	if r, ok := refs[key]; ok {
		return r
	}
	o := loader.Options{Window: window}
	if !strict {
		o.Health = ingest.NewHealth()
	}
	l, err := loader.Load(f.archiveDir(t, state), o)
	refs[key] = reference{l, err}
	return refs[key]
}

// sameIndex compares all 17 Querier methods of got against want on a
// sample of prefixes and days.
func sameIndex(t *testing.T, who string, want, got rib.Querier, window timex.Range) {
	t.Helper()
	eq := func(what string, a, b any) {
		t.Helper()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: %s diverges from the cache-off cold build:\nwant %v\ngot  %v", who, what, a, b)
		}
	}
	eq("Peers", want.Peers(), got.Peers())
	eq("NumPeers", want.NumPeers(), got.NumPeers())
	eq("NumPrefixes", want.NumPrefixes(), got.NumPrefixes())
	eq("Prefixes", want.Prefixes(), got.Prefixes())
	eq("ByOrigin", want.ByOrigin(), got.ByOrigin())
	if t.Failed() {
		return
	}
	days := []timex.Day{window.First, window.First + timex.Day(window.Days()/3), window.First + timex.Day(window.Days()/2), window.Last - 1, window.Last}
	for _, d := range days {
		eq(fmt.Sprint("RoutedSpace ", d), want.RoutedSpace(d, 2).Prefixes(), got.RoutedSpace(d, 2).Prefixes())
		eq(fmt.Sprint("MOASConflicts ", d), want.MOASConflicts(d), got.MOASConflicts(d))
	}
	ps := want.Prefixes()
	peers := want.Peers()
	for i := 0; i < len(ps); i += len(ps)/48 + 1 {
		p := ps[i]
		eq(fmt.Sprint("OriginTimeline ", p), want.OriginTimeline(p), got.OriginTimeline(p))
		wd, wok := want.FirstObserved(p)
		gd, gok := got.FirstObserved(p)
		eq(fmt.Sprint("FirstObserved ", p), []any{wd, wok}, []any{gd, gok})
		for _, d := range append(days, wd) {
			at := fmt.Sprint(" ", p, " ", d)
			eq("VisibleCount"+at, want.VisibleCount(p, d), got.VisibleCount(p, d))
			eq("VisibleFraction"+at, want.VisibleFraction(p, d), got.VisibleFraction(p, d))
			eq("Observed"+at, want.Observed(p, d), got.Observed(p, d))
			eq("PeersObserving"+at, want.PeersObserving(p, d), got.PeersObserving(p, d))
			eq("PeerObserved"+at, want.PeerObserved(peers[i%len(peers)], p, d), got.PeerObserved(peers[i%len(peers)], p, d))
			wo, wok := want.OriginAt(p, d)
			g, gok := got.OriginAt(p, d)
			eq("OriginAt"+at, []any{wo, wok}, []any{g, gok})
			wp, wok := want.PathAt(p, d)
			gp, gok := got.PathAt(p, d)
			eq("PathAt"+at, []any{wp, wok}, []any{gp, gok})
			eq("AnyOverlapObserved"+at, want.AnyOverlapObserved(p, d), got.AnyOverlapObserved(p, d))
		}
	}
}

// listing returns the sorted relative paths of the files under dir.
func listing(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			rel, _ := filepath.Rel(dir, path)
			out = append(out, rel)
		}
		return err
	})
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

// genFiles lists what the store holds for one generation cut into k
// shards: the shard manifest and the shard files, in one directory.
func genFiles(digest [32]byte, k int) []string {
	dir := ribsnap.GenDirName(digest)
	out := []string{filepath.Join(dir, "shards.manifest")}
	for i := 0; i < k; i++ {
		out = append(out, filepath.Join(dir, ribsnap.ShardFileName(i)))
	}
	return out
}

type event struct {
	name  string
	state string // archive state the load under test sees
	route loader.Route
	// skip is the snapshot-source skip a lenient load counts; nil counts
	// none. Whoever opened the cache, a generation keyed on another
	// digest than the archive's — stale — counts one, unless the delta
	// path extended it.
	skip *ingest.Reason
	// persists is false when the load must leave the cache as seeded.
	persists bool
	// reshard seeds the cache with the other shard count (4 in a cell of
	// 1, 1 in a cell of 4): a generation is served in the K it was
	// written with, and only the next one written takes the cell's.
	reshard bool
}

func reason(r ingest.Reason) *ingest.Reason { return &r }

// TestRouteMatrix drives the one loader through every combination of
// cache, shard count, archive event and strictness, asserting the route
// taken, the health report (a cache-off cold build's, plus exactly the
// documented snapshot skip), the shard count served, what is on disk
// afterwards, and that the loader, the batch facade and serve.Load all
// serve the index the cache-off cold build does. The cache is none, a
// snapshot store directory reopened for every load — what each batch
// run does ("file") — or one store handle kept across the loads, as
// the daemon keeps it ("store"); the two count and route identically.
// Without a cache, Shards > 1 is refused.
func TestRouteMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several hundred loads")
	}
	f := getFixture(t)
	unsupported := reason(ingest.Unsupported)
	events := []event{
		{name: "first run", state: "base", route: loader.Cold, persists: true},
		{name: "repeat", state: "base", route: loader.Warm, persists: true},
		{name: "append-only growth", state: "grown", route: loader.Delta, persists: true},
		{name: "rewritten file", state: "rewritten", route: loader.Cold, skip: unsupported, persists: true},
		{name: "removed collector", state: "removed", route: loader.Cold, skip: unsupported, persists: true},
		{name: "bit-flipped snapshot", state: "base", route: loader.Cold, skip: reason(ingest.Corrupt), persists: true},
		{name: "window change", state: "base", route: loader.Cold, skip: unsupported, persists: true},
		{name: "damaged collector", state: "damaged", route: loader.Cold, skip: unsupported},
		{name: "other shard count", state: "base", route: loader.Warm, persists: true, reshard: true},
		{name: "other shard count, append-only growth", state: "grown", route: loader.Delta, persists: true, reshard: true},
	}
	for _, cacheKind := range []string{"none", "file", "store"} {
		for _, shards := range []int{1, 4} {
			for _, ev := range events {
				for _, strict := range []bool{true, false} {
					name := fmt.Sprintf("%s/shards=%d/%s/strict=%v", cacheKind, shards, ev.name, strict)
					t.Run(name, func(t *testing.T) { f.runCell(t, cacheKind, shards, ev, strict) })
				}
			}
		}
	}
}

func (f fixture) runCell(t *testing.T, cacheKind string, shards int, ev event, strict bool) {
	dir := f.archiveDir(t, "base")
	cacheDir := filepath.Join(t.TempDir(), "ribsnap")
	window := f.window
	openStore := func() *ribsnap.Store {
		st, err := ribsnap.OpenStore(cacheDir, ribsnap.StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	var shared *ribsnap.Store
	if cacheKind == "store" {
		shared = openStore()
	}
	opts := func(k int) loader.Options {
		o := loader.Options{Window: window, Shards: k, Delta: true, Store: shared}
		if !strict {
			o.Health = ingest.NewHealth()
		}
		if cacheKind == "file" {
			o.Store = openStore()
		}
		return o
	}
	cfg := dropscope.DefaultConfig()
	iopts := dropscope.IngestOptions{Strict: strict, Shards: shards, Append: true}
	if cacheKind != "none" {
		iopts.SnapshotDir = cacheDir
	}

	if cacheKind == "none" && shards > 1 {
		// No cache, no sharded index: every entry point refuses by name.
		_, lerr := loader.Load(dir, opts(shards))
		_, serr := serve.Load(dir, opts(shards))
		_, ferr := dropscope.LoadStudyWithOptions(dir, cfg, iopts)
		for _, err := range []error{lerr, serr, ferr} {
			if err == nil || !strings.Contains(err.Error(), "Shards") || !strings.Contains(err.Error(), "Store") {
				t.Errorf("Shards %d without a store: err = %v, want a refusal naming Shards and Store", shards, err)
			}
		}
		if files := listing(t, cacheDir); len(files) != 0 {
			t.Errorf("refused load wrote %v", files)
		}
		return
	}

	seeded, seedK := f.digest(t, "base"), shards
	if ev.reshard {
		seedK = 5 - shards
	}
	if cacheKind != "none" && ev.name != "first run" {
		l, err := loader.Load(dir, opts(seedK))
		if err != nil {
			t.Fatalf("seeding load: %v", err)
		}
		if l.Route != loader.Cold {
			t.Fatalf("seeding load went %v", l.Route)
		}
		l.Snapshot.Close()
	}
	switch ev.name {
	case "bit-flipped snapshot":
		// The file a warm start opens first: shard 0, whose header the set
		// reads at open.
		if cacheKind != "none" {
			flipMiddle(t, filepath.Join(cacheDir, ribsnap.GenDirName(seeded), ribsnap.ShardFileName(0)))
		}
	case "window change":
		window.Last--
	default:
		f.setMRT(t, dir, ev.state)
	}
	current := f.digest(t, ev.state)

	ref := f.reference(t, ev.state, window, strict)
	o := opts(shards)
	got, err := loader.Load(dir, o)
	if (err != nil) != (ref.err != nil) {
		t.Fatalf("load error %v, cache-off cold build error %v", err, ref.err)
	}
	wantRoute, wantSkip := ev.route, ev.skip
	if cacheKind == "none" {
		wantRoute, wantSkip = loader.Cold, nil
	}
	if err == nil {
		defer got.Snapshot.Close()
		if got.Route != wantRoute {
			t.Errorf("route %v, want %v", got.Route, wantRoute)
		}
		if got.Snapshot.Digest != current {
			t.Errorf("loaded generation carries digest %x, the archive's is %x", got.Snapshot.Digest[:8], current[:8])
		}
		// The shard count served: the stored generation's own on a warm
		// start, the cell's for a generation just written, none for an
		// index built in memory (an unsharded cold build serves the index
		// it built).
		wantServed := 0
		switch {
		case cacheKind == "none":
		case got.Route == loader.Warm:
			wantServed = seedK
		case got.Route == loader.Delta, shards > 1 && ev.persists:
			wantServed = shards
		}
		served := 0
		if got.Shards != nil {
			served = got.Shards.NumShards()
		}
		if served != wantServed {
			t.Errorf("served %d shards from the store, want %d", served, wantServed)
		}
		sameIndex(t, "loader", ref.l.Pipeline.Index, got.Pipeline.Index, window)
		if !strict {
			var wantHealth, gotHealth []ingest.SourceReport
			wantHealth = ref.l.Pipeline.HealthReport().Sources
			var skips ingest.Counters
			for _, s := range got.Pipeline.HealthReport().Sources {
				if s.Name == loader.SnapshotSource {
					skips = s.Skips
					continue
				}
				gotHealth = append(gotHealth, s)
			}
			if !reflect.DeepEqual(wantHealth, gotHealth) {
				t.Errorf("health diverges from the cache-off cold build:\nwant %+v\ngot  %+v", wantHealth, gotHealth)
			}
			var wantSkips ingest.Counters
			if wantSkip != nil {
				wantSkips.Add(*wantSkip)
			}
			if skips != wantSkips {
				t.Errorf("snapshot skips %v, want %v", skips, wantSkips)
			}
		}
	}

	// What is on disk afterwards: the journal, the archive manifest and
	// generation directories, and after a lenient load the text journal
	// (the text is never damaged here), nothing else. A load that must not persist
	// (damaged MRT ingest, or a strict load that failed) leaves the
	// seeded generations.
	held := current
	if !ev.persists {
		held = seeded
	}
	if cacheKind == "none" {
		if files := listing(t, cacheDir); len(files) != 0 {
			t.Errorf("cache-off load wrote %v", files)
		}
	} else {
		want := append([]string{ribsnap.ManifestName, "archive.manifest"}, genFiles(seeded, seedK)...)
		if held != seeded {
			want = append(want, genFiles(held, shards)...)
		}
		if !strict {
			want = append(want, "text.journal")
		}
		sort.Strings(want)
		if files := listing(t, cacheDir); !reflect.DeepEqual(files, want) {
			t.Errorf("store holds %v, want %v", files, want)
		}
		st := openStore()
		if live, ok := st.Promoted(); !ok || live != held {
			t.Errorf("promoted generation %x (%v), want %x", live[:8], ok, held[:8])
		}
		// A load that persisted nothing must not have touched the journal:
		// the seeded generation is still the promoted one, not retired in
		// favour of a generation that has no directory.
		if s := st.Status(held); !ev.persists && s != ribsnap.GenPromoted {
			t.Errorf("generation %x is %v in the journal, want promoted", held[:8], s)
		}
	}
	if err != nil {
		return
	}

	// The two callers over the same archive and cache: the daemon's, on
	// the cell's store handle, then the facade's, which opens the
	// directory itself.
	gen, err := serve.Load(dir, opts(shards))
	if err != nil {
		t.Fatalf("serve.Load: %v", err)
	}
	sameIndex(t, "serve.Load", ref.l.Pipeline.Index, gen.Pipeline().Index, window)
	if !strings.HasPrefix(gen.DigestHex(), fmt.Sprintf("%x", current[:8])) {
		t.Errorf("serve.Load generation %s, want %x", gen.DigestHex(), current[:8])
	}
	cfg.Window = window
	study, err := dropscope.LoadStudyWithOptions(dir, cfg, iopts)
	if err != nil {
		t.Fatalf("facade: %v", err)
	}
	defer study.Close()
	sameIndex(t, "facade", ref.l.Pipeline.Index, study.Pipeline.Index, window)
}

// TestLoadRejectsInvertedWindow: the load both programs boot through
// fails on a window whose last day is before its first, naming it, and
// promotes no generation for it.
func TestLoadRejectsInvertedWindow(t *testing.T) {
	f := getFixture(t)
	st, err := ribsnap.OpenStore(filepath.Join(t.TempDir(), "ribsnap"), ribsnap.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	window := timex.Range{First: f.window.Last, Last: f.window.First}
	_, err = loader.Load(f.archiveDir(t, "base"), loader.Options{Window: window, Store: st})
	if err == nil || !strings.Contains(err.Error(), window.String()) {
		t.Fatalf("window %s: err = %v, want one naming the window", window, err)
	}
	if live, ok := st.Promoted(); ok {
		t.Errorf("the failed load promoted generation %x", live[:8])
	}
}

// TestDamagedLoadKeepsDeltaBase: a lenient load over a damaged
// collector refuses to persist, so it has no generation to promote.
// Journaling it live anyway would retire the last good generation and
// leave the next load no base to extend.
func TestDamagedLoadKeepsDeltaBase(t *testing.T) {
	f := getFixture(t)
	dir := f.archiveDir(t, "base")
	st, err := ribsnap.OpenStore(filepath.Join(t.TempDir(), "ribsnap"), ribsnap.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	load := func(state string, want loader.Route) {
		t.Helper()
		f.setMRT(t, dir, state)
		l, err := loader.Load(dir, loader.Options{Window: f.window, Health: ingest.NewHealth(), Store: st, Delta: true})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Snapshot.Close()
		if l.Route != want {
			t.Fatalf("%s archive loaded %v, want %v", state, l.Route, want)
		}
	}
	load("base", loader.Cold)
	load("damaged", loader.Cold)
	seeded := f.digest(t, "base")
	if live, ok := st.Promoted(); !ok || live != seeded || st.Status(seeded) != ribsnap.GenPromoted {
		t.Fatalf("after the damaged load the live generation is %x (%v, %v), want the seeded %x still promoted",
			live[:8], ok, st.Status(seeded), seeded[:8])
	}
	// The collector is repaired and a day has arrived: append-only growth
	// past the seeded generation, which must still be there to extend.
	load("grown", loader.Delta)
}

// TestOlderStoreRebuiltOnce: a store written before snapshot version 2
// — shard files at version 1, and a version-2 "derived" journal record
// naming a generation's parent — costs one cold rebuild. A lenient load
// counts exactly one unsupported snapshot skip and rebuilds; the next
// load is warm, and its health report is the cache-off cold build's.
func TestOlderStoreRebuiltOnce(t *testing.T) {
	f := getFixture(t)
	dir := f.archiveDir(t, "base")
	cacheDir := filepath.Join(t.TempDir(), "ribsnap")
	load := func(state string, want loader.Route, wantSkips ingest.Counters) {
		t.Helper()
		f.setMRT(t, dir, state)
		st, err := ribsnap.OpenStore(cacheDir, ribsnap.StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		l, err := loader.Load(dir, loader.Options{Window: f.window, Health: ingest.NewHealth(), Store: st, Delta: true})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Snapshot.Close()
		if l.Route != want {
			t.Errorf("load went %v, want %v", l.Route, want)
		}
		var skips ingest.Counters
		var health []ingest.SourceReport
		for _, s := range l.Pipeline.HealthReport().Sources {
			if s.Name == loader.SnapshotSource {
				skips = s.Skips
				continue
			}
			health = append(health, s)
		}
		ref := f.reference(t, state, f.window, false)
		if want := ref.l.Pipeline.HealthReport().Sources; !reflect.DeepEqual(want, health) {
			t.Errorf("health diverges from the cache-off cold build:\nwant %+v\ngot  %+v", want, health)
		}
		if skips != wantSkips {
			t.Errorf("snapshot skips %v, want %v", skips, wantSkips)
		}
	}
	// A cold load, then an append: the generations an earlier binary
	// left behind.
	load("base", loader.Cold, ingest.Counters{})
	load("grown", loader.Delta, ingest.Counters{})

	shards, err := filepath.Glob(filepath.Join(cacheDir, "gen-*", "shard-*.ribsnap"))
	if err != nil || len(shards) != 2 {
		t.Fatalf("store holds shard files %v (%v), want one per generation", shards, err)
	}
	// The version field sits in the header, outside the payload CRC, so
	// rewriting it needs no reseal.
	for _, path := range shards {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(raw[8:12], 1)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := ribsnap.ReadManifest(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	base, grown := f.digest(t, "base"), f.digest(t, "grown")
	derived := make([]byte, 8+84)
	p := derived[8:]
	p[0], p[1] = 2, 6 // version 2, op derived
	binary.LittleEndian.PutUint64(p[4:12], recs[len(recs)-1].Seq+1)
	copy(p[20:52], grown[:])
	copy(p[52:84], base[:])
	binary.LittleEndian.PutUint32(derived[0:4], uint32(len(p)))
	binary.LittleEndian.PutUint32(derived[4:8], crc32.Checksum(p, crc32.MakeTable(crc32.Castagnoli)))
	journal, err := os.OpenFile(filepath.Join(cacheDir, ribsnap.ManifestName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := journal.Write(derived); err != nil {
		t.Fatal(err)
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}

	var unsupported ingest.Counters
	unsupported.Add(ingest.Unsupported)
	load("grown", loader.Cold, unsupported)
	load("grown", loader.Warm, ingest.Counters{})
}

// TestTextJournalCrashAtEveryStep: a process that dies at any step of
// the text journal's writes (the miss clears the stale journal, the
// parse writes the new one) or of the archive manifest's leaves the old
// journal, the new one or none, and the old manifest or the new one;
// the load it was writing for still succeeds, and so does the next one
// (after the store's reopen sweeps the temp), each reporting what a
// cache-off load of the archive does.
func TestTextJournalCrashAtEveryStep(t *testing.T) {
	f := getFixture(t)
	dir := f.archiveDir(t, "base")
	seeded := filepath.Join(t.TempDir(), "ribsnap")
	load := func(cacheDir string, fsys ribsnap.FS) *loader.Loaded {
		t.Helper()
		o := loader.Options{Window: f.window, Health: ingest.NewHealth(), Delta: true}
		if cacheDir != "" {
			st, err := ribsnap.OpenStore(cacheDir, ribsnap.StoreOptions{FS: fsys})
			if err != nil {
				t.Fatal(err)
			}
			o.Store = st
		}
		l, err := loader.Load(dir, o)
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		l.Snapshot.Close()
		return l
	}
	journal := func(cacheDir string) []byte {
		raw, _ := os.ReadFile(filepath.Join(cacheDir, "text.journal"))
		return raw
	}
	// The manifest's rows: past the magic, version and recording time,
	// which differs from load to load, and short of the checksum.
	manifest := func(cacheDir string) []byte {
		raw, _ := os.ReadFile(filepath.Join(cacheDir, "archive.manifest"))
		if len(raw) < 20 {
			return raw
		}
		return raw[16 : len(raw)-4]
	}
	clone := func() string {
		cacheDir := filepath.Join(t.TempDir(), "ribsnap")
		if err := os.CopyFS(cacheDir, os.DirFS(seeded)); err != nil {
			t.Fatal(err)
		}
		return cacheDir
	}
	load(seeded, nil)
	old, oldRows := journal(seeded), manifest(seeded)

	// Drop the last line of the last DROP day, through a fresh inode: the
	// file is hard-linked to the fixture's.
	days, err := filepath.Glob(filepath.Join(dir, "drop", "*.txt"))
	if err != nil || len(days) == 0 {
		t.Fatalf("DROP days %v: %v", days, err)
	}
	last := days[len(days)-1]
	raw, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	raw = raw[:bytes.LastIndexByte(raw[:len(raw)-1], '\n')+1]
	if err := os.Remove(last); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	want := load("", nil).Pipeline.HealthReport()

	probe := clone()
	d := faultinject.NewDiskFS(nil, faultinject.DiskOpts{})
	st, err := ribsnap.OpenStore(probe, ribsnap.StoreOptions{FS: d})
	if err != nil {
		t.Fatal(err)
	}
	opened := d.Ops()
	l, err := loader.Load(dir, loader.Options{Window: f.window, Health: ingest.NewHealth(), Store: st, Delta: true})
	if err != nil {
		t.Fatal(err)
	}
	l.Snapshot.Close()
	steps, fresh, freshRows := d.Ops()-opened, journal(probe), manifest(probe)
	if steps == 0 || fresh == nil || string(fresh) == string(old) {
		t.Fatalf("the changed text's load wrote no new journal (%d steps)", steps)
	}
	if oldRows == nil || freshRows == nil || bytes.Equal(freshRows, oldRows) {
		t.Fatalf("the changed text's load wrote no new archive manifest")
	}
	for k := 0; k <= steps; k++ {
		cacheDir := clone()
		crash := faultinject.NewDiskFS(nil, faultinject.DiskOpts{Crash: true, CrashAfter: opened + k})
		if got := load(cacheDir, crash).Pipeline.HealthReport(); !reflect.DeepEqual(got, want) {
			t.Fatalf("crash after %d of %d steps: the load's health differs from a cache-off load's", k, steps)
		}
		switch got := journal(cacheDir); {
		case bytes.Equal(got, old), bytes.Equal(got, fresh), len(got) == 0: // empty: the miss cleared the old one
		default:
			t.Fatalf("crash after %d of %d steps left a journal that is neither the old nor the new one", k, steps)
		}
		if got := manifest(cacheDir); !bytes.Equal(got, oldRows) && !bytes.Equal(got, freshRows) {
			t.Fatalf("crash after %d of %d steps left an archive manifest that is neither the old nor the new one", k, steps)
		}
		if got := load(cacheDir, nil).Pipeline.HealthReport(); !reflect.DeepEqual(got, want) {
			t.Fatalf("crash after %d of %d steps: the next load's health differs from a cache-off load's", k, steps)
		}
		for _, name := range listing(t, cacheDir) {
			if strings.HasPrefix(name, ".ribsnap-") {
				t.Fatalf("crash after %d of %d steps: temp %s survived the reopen", k, steps, name)
			}
		}
	}
}
