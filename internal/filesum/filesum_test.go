package filesum

import (
	"bytes"
	"crypto/sha256"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"time"

	"dropscope/internal/fsio"
)

// archive writes n small files under a fresh root and returns the root
// and their archive-relative paths.
func archive(t *testing.T, n int) (string, []string) {
	t.Helper()
	root := t.TempDir()
	if err := os.Mkdir(filepath.Join(root, "drop"), 0o755); err != nil {
		t.Fatal(err)
	}
	var rels []string
	for i := range n {
		rel := "drop/" + strconv.Itoa(i) + ".txt"
		if err := os.WriteFile(filepath.Join(root, rel), []byte("file "+strconv.Itoa(i)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		rels = append(rels, rel)
	}
	return root, rels
}

func sumOf(r row) Sum { return Sum{r.Size, r.sha} }

func bytesOf(data []byte) func() []byte { return func() []byte { return data } }

// recorded sums rels through a fresh manifest and returns its rows.
func recorded(t *testing.T, root string, rels []string) map[string]row {
	t.Helper()
	m := Open(root, nil)
	if _, err := m.SumAll(rels, 2); err != nil {
		t.Fatal(err)
	}
	b, changed := m.Encode()
	if !changed {
		t.Fatal("a manifest that hashed files reports no change")
	}
	_, rows, err := decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(rels) {
		t.Fatalf("%d rows for %d files", len(rows), len(rels))
	}
	return rows
}

// served reports whether a manifest of rows recorded at the given time
// serves rel's sum from its row: the row's SHA-256 is zeroed, so a sum
// that read the file differs from it.
func served(t *testing.T, root, rel string, r row, at int64) bool {
	t.Helper()
	r.sha = [sha256.Size]byte{}
	m := Open(root, bytesOf(encode(at, map[string]row{rel: r})))
	before := Opened()
	sums, err := m.SumAll([]string{rel}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sum := sums[0]
	raw, err := os.ReadFile(filepath.Join(root, rel))
	if err != nil {
		t.Fatal(err)
	}
	switch {
	case Opened() == before && sum.SHA == r.sha:
		return true
	case Opened() == before+1 && sum.SHA == sha256.Sum256(raw):
		return false
	}
	t.Fatalf("%s: sum %x after %d opens is neither the row's nor the file's", rel, sum.SHA[:4], Opened()-before)
	return false
}

// TestRowServesOnlyItsWholeTuple: a row recorded well before its use
// serves a file whose stat tuple is the recorded one, and no file that
// differs in any one field of it.
func TestRowServesOnlyItsWholeTuple(t *testing.T) {
	root, rels := archive(t, 1)
	r := recorded(t, root, rels)[rels[0]]
	later := max(r.Mtime, r.Ctime) + 2*racyMargin
	if !served(t, root, rels[0], r, later) {
		t.Fatal("the row of an unchanged file did not serve")
	}
	for name, edit := range map[string]func(*row){
		"size":   func(r *row) { r.Size++ },
		"mtime":  func(r *row) { r.Mtime-- },
		"ctime":  func(r *row) { r.Ctime-- },
		"device": func(r *row) { r.Dev++ },
		"inode":  func(r *row) { r.Ino++ },
	} {
		other := r
		edit(&other)
		if served(t, root, rels[0], other, later) {
			t.Errorf("a row whose %s differs from the file's served", name)
		}
	}
}

// TestRacyRowIsReread: a row whose file's mtime or ctime is not older
// than the manifest's recording time by the margin is "racily clean" —
// a write in the tick of the read that hashed it would leave the same
// tuple — so the file is read, however exactly the tuple matches.
func TestRacyRowIsReread(t *testing.T) {
	root, rels := archive(t, 1)
	// An mtime well in the past and a ctime of now: only ctime is racy.
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(filepath.Join(root, rels[0]), old, old); err != nil {
		t.Fatal(err)
	}
	r := recorded(t, root, rels)[rels[0]]
	if r.Mtime >= r.Ctime-racyMargin {
		t.Fatalf("mtime %d is not well before ctime %d", r.Mtime, r.Ctime)
	}
	for _, c := range []struct {
		name  string
		at    int64
		serve bool
	}{
		{"ctime inside the window", r.Ctime + racyMargin/2, false},
		{"ctime at the window's edge", r.Ctime + racyMargin, false},
		{"mtime inside the window", r.Mtime + racyMargin/2, false},
		{"both well before", r.Ctime + 2*racyMargin, true},
	} {
		if got := served(t, root, rels[0], r, c.at); got != c.serve {
			t.Errorf("%s: served %v, want %v", c.name, got, c.serve)
		}
	}
}

// TestEncodeKeepsWhatStillHolds: a load that found every row to hold
// writes nothing; one that did not look at a file carries its row
// while the file is unchanged and drops it once the file is gone.
func TestEncodeKeepsWhatStillHolds(t *testing.T) {
	root, rels := archive(t, 3)
	rows := recorded(t, root, rels)
	at := time.Now().Add(2 * time.Second).UnixNano()
	data := encode(at, rows)

	m := Open(root, bytesOf(data))
	if _, err := m.SumAll(rels, 1); err != nil {
		t.Fatal(err)
	}
	if _, changed := m.Encode(); changed {
		t.Error("a load whose rows all held would rewrite the manifest")
	}
	if _, changed := Open(root, bytesOf(data)).Encode(); changed {
		t.Error("a load that summed nothing would rewrite the manifest")
	}
	if err := os.Remove(filepath.Join(root, rels[1])); err != nil {
		t.Fatal(err)
	}
	b, changed := Open(root, bytesOf(data)).Encode()
	if !changed {
		t.Fatal("a removed file's row survived")
	}
	_, got, err := decode(b)
	if err != nil {
		t.Fatal(err)
	}
	delete(rows, rels[1])
	if !reflect.DeepEqual(got, rows) {
		t.Errorf("rows carried %v, want %v", got, rows)
	}
}

// TestReadAndRecordKeepRows: a parse's read and a caller's own hash
// record rows equal to a sum's, and a caller's only while the file
// stats as it did before the caller read it.
func TestReadAndRecordKeepRows(t *testing.T) {
	root, rels := archive(t, 2)
	want := recorded(t, root, rels)
	m := Open(root, nil)
	var buf bytes.Buffer
	sum, err := m.Read(rels[0], &buf, true)
	if err != nil {
		t.Fatal(err)
	}
	if sum != sumOf(want[rels[0]]) || buf.String() != "file 0\n" {
		t.Errorf("Read returned %q and %x, want the file and its sum", buf.String(), sum.SHA[:4])
	}
	s, ok := m.Stat(rels[1])
	if !ok {
		t.Skip("no stat tuple on this platform")
	}
	m.Record(rels[1], s, sumOf(want[rels[1]]))
	stale := s
	stale.Mtime--
	m.Record(rels[0], stale, Sum{})
	b, _ := m.Encode()
	if _, got, err := decode(b); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("recorded rows %v (%v), want %v", got, err, want)
	}
}

// TestSumAllMatchesSum sums one set of files from several goroutines
// at once (run it under -race).
func TestSumAllMatchesSum(t *testing.T) {
	root, rels := archive(t, 40)
	m := Open(root, nil)
	got, err := m.SumAll(rels, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, rel := range rels {
		raw, _ := os.ReadFile(filepath.Join(root, rel))
		if got[i] != (Sum{uint64(len(raw)), sha256.Sum256(raw)}) {
			t.Errorf("%s: sum differs from the file's", rel)
		}
	}
	if _, err := m.SumAll([]string{"drop/missing.txt"}, 8); err == nil {
		t.Error("summing a missing file did not fail")
	}
}

// FuzzArchiveManifest drives the manifest's decoder: whatever the input
// it must not panic, and a manifest it accepts must come back equal from
// its re-encoding.
func FuzzArchiveManifest(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add(encode(0, nil))
	f.Add(encode(1_700_000_000_000_000_000, map[string]row{
		"drop/20200101.txt": {Stat: Stat{Size: 7, Dev: 2049, Ino: 11, Mtime: 5, Ctime: 6}},
		"mrt/rrc00.mrt":     {Stat: Stat{Size: 1 << 40, Mtime: -1, Ctime: -2}, sha: [sha256.Size]byte{1, 2, 3}},
	}))
	// Each input is tried as it is and with its checksum recomputed, so
	// mutations reach the rows instead of dying at the checksum.
	f.Fuzz(func(t *testing.T, data []byte) {
		probes := [][]byte{data}
		if n := len(data) - 4; n >= 0 {
			probes = append(probes, fsio.Seal(slices.Clip(data[:n])))
		}
		for _, b := range probes {
			at, rows, err := decode(b)
			if err != nil {
				continue
			}
			at2, rows2, err := decode(encode(at, rows))
			if err != nil || at2 != at || !reflect.DeepEqual(rows2, rows) {
				t.Fatalf("an accepted manifest re-encodes to one that decodes otherwise (%v)", err)
			}
		}
	})
}
