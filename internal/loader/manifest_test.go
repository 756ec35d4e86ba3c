package loader_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dropscope/internal/analysis"
	"dropscope/internal/filesum"
	"dropscope/internal/ingest"
	"dropscope/internal/loader"
	"dropscope/internal/ribsnap"
)

// pastRacy outlasts the archive manifest's one-second racy margin: a
// row recorded for a file changed before the wait serves.
const pastRacy = 1100 * time.Millisecond

// copyDir assembles a private archive directory like archiveDir, but of
// copied files: its own inodes, which a test may rewrite in place.
func (f fixture) copyDir(t *testing.T, state string) string {
	t.Helper()
	dir := t.TempDir()
	for _, sub := range []string{"drop", "sbl", "irr", "rpki", "rirstats"} {
		if err := os.CopyFS(filepath.Join(dir, sub), os.DirFS(filepath.Join(f.text, sub))); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.CopyFS(filepath.Join(dir, "mrt"), os.DirFS(f.mrt[state])); err != nil {
		t.Fatal(err)
	}
	return dir
}

// cachedLoad loads dir leniently through the store at cacheDir,
// reopened as a batch run reopens it.
func (f fixture) cachedLoad(t *testing.T, dir, cacheDir string) *loader.Loaded {
	t.Helper()
	st, err := ribsnap.OpenStore(cacheDir, ribsnap.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := loader.Load(dir, loader.Options{Window: f.window, Health: ingest.NewHealth(), Store: st, Delta: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Snapshot.Close() })
	return l
}

// sameAsCacheOff fails unless got serves what a cache-off load of dir
// does: the archive digest, the index, every text store and the health
// report (but for the snapshot source's skips).
func (f fixture) sameAsCacheOff(t *testing.T, who, dir string, got *loader.Loaded) {
	t.Helper()
	want, err := loader.Load(dir, loader.Options{Window: f.window, Health: ingest.NewHealth()})
	if err != nil {
		t.Fatal(err)
	}
	defer want.Snapshot.Close()
	if got.Snapshot.Digest != want.Snapshot.Digest {
		t.Errorf("%s: digest %x, a cache-off load's is %x", who, got.Snapshot.Digest[:8], want.Snapshot.Digest[:8])
	}
	sameIndex(t, who, want.Pipeline.Index, got.Pipeline.Index, f.window)
	sameText(t, who, want.Pipeline.Dataset(), got.Pipeline.Dataset())
	var health []ingest.SourceReport
	for _, s := range got.Pipeline.HealthReport().Sources {
		if s.Name != loader.SnapshotSource {
			health = append(health, s)
		}
	}
	if w := want.Pipeline.HealthReport().Sources; !reflect.DeepEqual(w, health) {
		t.Errorf("%s: health diverges from a cache-off load's:\nwant %+v\ngot  %+v", who, w, health)
	}
}

// sameText compares the DROP, RPKI and rirstats stores.
func sameText(t *testing.T, who string, want, got analysis.Dataset) {
	t.Helper()
	eq := func(what string, a, b any) {
		t.Helper()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: %s diverges from a cache-off load's", who, what)
		}
	}
	eq("DROP days", want.DROP.Days(), got.DROP.Days())
	for _, d := range want.DROP.Days() {
		w, _ := want.DROP.Snapshot(d)
		g, _ := got.DROP.Snapshot(d)
		eq(fmt.Sprint("DROP snapshot ", d), w, g)
	}
	eq("ROA events", want.RPKI.Events(), got.RPKI.Events())
	eq("rirstats change days", want.RIR.ChangeDays(), got.RIR.ChangeDays())
	for _, d := range append(want.RIR.ChangeDays(), want.Window.First) {
		eq(fmt.Sprint("rirstats records at ", d), want.RIR.RecordsAt(d), got.RIR.RecordsAt(d))
	}
}

// TestWarmLoadOpensNoArchiveFile: once the archive manifest holds a row
// for every file, a warm load over the unchanged archive opens no MRT,
// DROP, RPKI or rirstats file — neither the cold route's rows nor, after
// an append, the delta route's are hashed again.
func TestWarmLoadOpensNoArchiveFile(t *testing.T) {
	f := getFixture(t)
	dir := f.copyDir(t, "base")
	cacheDir := filepath.Join(t.TempDir(), "ribsnap")
	warm := func(after string) {
		t.Helper()
		before := filesum.Opened()
		l := f.cachedLoad(t, dir, cacheDir)
		if l.Route != loader.Warm {
			t.Fatalf("after %s the load went %v, want warm", after, l.Route)
		}
		if n := filesum.Opened() - before; n != 0 {
			t.Errorf("the warm load after %s opened %d archive files, want none", after, n)
		}
		f.sameAsCacheOff(t, "warm after "+after, dir, l)
	}
	time.Sleep(pastRacy)
	if l := f.cachedLoad(t, dir, cacheDir); l.Route != loader.Cold {
		t.Fatalf("first load went %v", l.Route)
	}
	warm("a cold load")

	if err := os.RemoveAll(filepath.Join(dir, "mrt")); err != nil {
		t.Fatal(err)
	}
	if err := os.CopyFS(filepath.Join(dir, "mrt"), os.DirFS(f.mrt["grown"])); err != nil {
		t.Fatal(err)
	}
	time.Sleep(pastRacy)
	if l := f.cachedLoad(t, dir, cacheDir); l.Route != loader.Delta {
		t.Fatalf("load of the grown archive went %v, want delta", l.Route)
	}
	warm("an append")
}

// TestArchiveManifestMissesEachChange: every way a file can change
// under its row misses — the file is read again, and what the load
// serves is a cache-off load's — whether the text journal or the
// generation is what the stale row would have keyed.
func TestArchiveManifestMissesEachChange(t *testing.T) {
	f := getFixture(t)
	rirFile := func(dir string) string {
		t.Helper()
		files, err := filepath.Glob(filepath.Join(dir, "rirstats", "*", "delegated-*-extended"))
		if err != nil || len(files) == 0 {
			t.Fatalf("rirstats files %v (%v)", files, err)
		}
		for _, path := range files {
			if raw, _ := os.ReadFile(path); bytes.Contains(raw, []byte("|available|")) {
				return path
			}
		}
		t.Fatal("no rirstats file has an available block")
		return ""
	}
	// rewriteInPlace flips the first available block of a rirstats file
	// to allocated: the same size, the same inode.
	rewriteInPlace := func(t *testing.T, path string) {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		i := bytes.Index(raw, []byte("|available|"))
		w, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.WriteAt([]byte("|allocated|"), int64(i)); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	days := func(dir, sub string) []string {
		t.Helper()
		files, err := filepath.Glob(filepath.Join(dir, sub, "*"))
		if err != nil || len(files) < 2 {
			t.Fatalf("%s files %v (%v)", sub, files, err)
		}
		return files
	}
	for _, c := range []struct {
		name string
		// wait lets the seeding load's rows serve; without it they are
		// racy.
		wait bool
		edit func(t *testing.T, dir string)
		// cold: the edit is to MRT, so the load must build cold; else it
		// is to the text, and the journal must be recorded anew.
		cold bool
	}{
		{name: "same size, inside the racy window", edit: func(t *testing.T, dir string) {
			rewriteInPlace(t, rirFile(dir))
		}},
		{name: "in-place rewrite with mtime restored", wait: true, edit: func(t *testing.T, dir string) {
			path := rirFile(dir)
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			rewriteInPlace(t, path)
			if err := os.Chtimes(path, fi.ModTime(), fi.ModTime()); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "rename", wait: true, edit: func(t *testing.T, dir string) {
			rpki := days(dir, "rpki")
			a, b := rpki[0], rpki[len(rpki)-1]
			for _, mv := range [][2]string{{a, a + ".tmp"}, {b, a}, {a + ".tmp", b}} {
				if err := os.Rename(mv[0], mv[1]); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{name: "truncate and regrow", wait: true, cold: true, edit: func(t *testing.T, dir string) {
			path := filepath.Join(dir, "mrt", f.victim)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[2] ^= 0x01 // a timestamp byte: the record stays decodable
			if err := os.Truncate(path, 0); err != nil {
				t.Fatal(err)
			}
			w, err := os.OpenFile(path, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write(raw); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "hard link to another inode", wait: true, edit: func(t *testing.T, dir string) {
			drop := days(dir, "drop")
			a, b := drop[0], drop[len(drop)-1]
			if err := os.Remove(b); err != nil {
				t.Fatal(err)
			}
			if err := os.Link(a, b); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := f.copyDir(t, "base")
			cacheDir := filepath.Join(t.TempDir(), "ribsnap")
			if c.wait {
				time.Sleep(pastRacy)
			}
			f.cachedLoad(t, dir, cacheDir)
			journal, _ := os.ReadFile(filepath.Join(cacheDir, "text.journal"))
			c.edit(t, dir)
			before := filesum.Opened()
			l := f.cachedLoad(t, dir, cacheDir)
			if filesum.Opened() == before {
				t.Error("the load after the change read no file")
			}
			if c.cold && l.Route != loader.Cold {
				t.Errorf("load went %v, want cold", l.Route)
			}
			if again, _ := os.ReadFile(filepath.Join(cacheDir, "text.journal")); !c.cold && bytes.Equal(again, journal) {
				t.Error("the text journal was replayed, not recorded anew")
			}
			f.sameAsCacheOff(t, c.name, dir, l)
		})
	}
}

// TestArchiveCopiesKeepStoreListing: a store loaded over one archive,
// then over a copy of it — text hard-linked (link(2) moves the shared
// inodes' ctime), MRT copied — re-records every row, and the store's
// top-level listing of names and sizes is what it was: a warm boot over
// a fresh copy of the archive writes no file of another size.
func TestArchiveCopiesKeepStoreListing(t *testing.T) {
	f := getFixture(t)
	a := f.copyDir(t, "base")
	b := t.TempDir()
	for _, sub := range []string{"drop", "sbl", "irr", "rpki", "rirstats"} {
		linkTree(t, filepath.Join(a, sub), filepath.Join(b, sub))
	}
	if err := os.CopyFS(filepath.Join(b, "mrt"), os.DirFS(filepath.Join(a, "mrt"))); err != nil {
		t.Fatal(err)
	}
	cacheDir := filepath.Join(t.TempDir(), "ribsnap")
	state := func() string {
		t.Helper()
		ents, err := os.ReadDir(cacheDir)
		if err != nil {
			t.Fatal(err)
		}
		var s strings.Builder
		for _, e := range ents {
			info, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			size := info.Size()
			if e.IsDir() {
				size = 0
			}
			fmt.Fprintf(&s, "%s:%d ", e.Name(), size)
		}
		return s.String()
	}
	manifest := func() []byte {
		raw, _ := os.ReadFile(filepath.Join(cacheDir, "archive.manifest"))
		return raw
	}
	f.cachedLoad(t, a, cacheDir)
	seeded, rows := state(), manifest()
	if len(rows) == 0 {
		t.Fatal("the cold load recorded no archive manifest")
	}
	if l := f.cachedLoad(t, b, cacheDir); l.Route != loader.Warm {
		t.Fatalf("the load over the copy went %v, want warm", l.Route)
	}
	if bytes.Equal(manifest(), rows) {
		t.Error("the load over the copy re-recorded no row")
	}
	if got := state(); got != seeded {
		t.Errorf("store went from [%s] to [%s]", seeded, got)
	}
}
