package dropscope

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"dropscope/internal/archive"
	"dropscope/internal/ingest/faultinject"
	"dropscope/internal/mrt"
)

// writeDamagedArchives persists the cached study's archives and then
// deterministically damages the MRT streams of the first `damaged`
// collectors (in sorted name order) with the fault-injection harness.
// It returns the archive dir and the health-source names of the damaged
// collectors.
func writeDamagedArchives(t *testing.T, damaged int) (string, []string) {
	t.Helper()
	s := study(t)
	dir := t.TempDir()
	if err := s.WriteArchives(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "mrt"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".mrt") {
			names = append(names, strings.TrimSuffix(e.Name(), ".mrt"))
		}
	}
	sort.Strings(names)
	if len(names) <= damaged {
		t.Fatalf("world has %d collectors, cannot damage %d and keep survivors", len(names), damaged)
	}
	var srcs []string
	for i := 0; i < damaged; i++ {
		path := filepath.Join(dir, "mrt", names[i]+".mrt")
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		out := faultinject.New(uint64(1000 + i)).DamageMRT(raw)
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, "mrt/"+names[i])
	}
	return dir, srcs
}

// TestLenientRunQuarantinesDamagedCollectors is the headline acceptance
// scenario: with 2 of the collectors' MRT streams corrupted, the lenient
// pipeline completes, quarantines exactly those collectors, and the
// rendered report carries a data-health section with their skip counts.
func TestLenientRunQuarantinesDamagedCollectors(t *testing.T) {
	dir, damaged := writeDamagedArchives(t, 2)
	loaded, err := LoadStudyWithOptions(dir, smallConfig(), IngestOptions{MaxSkip: 1})
	if err != nil {
		t.Fatalf("lenient load over damaged archives failed: %v", err)
	}
	r := loaded.Results()

	if r.Health.Clean() {
		t.Fatal("damaged run reported clean health")
	}
	if got := r.Health.Quarantined; len(got) != len(damaged) ||
		got[0] != damaged[0] || got[1] != damaged[1] {
		t.Fatalf("quarantined = %v, want exactly %v", got, damaged)
	}
	for _, src := range r.Health.Sources {
		isDamaged := src.Name == damaged[0] || src.Name == damaged[1]
		if isDamaged && src.Skips.Total() == 0 {
			t.Errorf("damaged source %s has no skip counts", src.Name)
		}
		if !isDamaged && (src.Skips.Total() != 0 || src.Quarantined) {
			t.Errorf("undamaged source %s reported damage: %+v", src.Name, src)
		}
	}

	out := renderBytes(t, r)
	if !bytes.Contains(out, []byte("Data health")) {
		t.Error("render lacks the data-health section")
	}
	for _, name := range damaged {
		if !bytes.Contains(out, []byte(name)) {
			t.Errorf("data-health section does not name %s", name)
		}
	}
	if !bytes.Contains(out, []byte("QUARANTINED")) {
		t.Error("data-health section does not mark the quarantine")
	}

	sum := r.Summary()
	if sum.DataHealth == nil {
		t.Fatal("summary of damaged run has no data_health")
	}
	if len(sum.DataHealth.Quarantined) != 2 || sum.DataHealth.TotalSkipped == 0 {
		t.Errorf("data_health = %+v", sum.DataHealth)
	}
}

// TestStrictRunOverDamagedArchivesFails pins the strict contract: the
// same damaged dataset refuses to load, and the error names the failing
// record's index and byte offset.
func TestStrictRunOverDamagedArchivesFails(t *testing.T) {
	dir, _ := writeDamagedArchives(t, 2)
	_, err := LoadStudyWithOptions(dir, smallConfig(), IngestOptions{Strict: true})
	if err == nil {
		t.Fatal("strict load over damaged archives succeeded")
	}
	if !regexp.MustCompile(`record \d+ at offset 0x[0-9a-f]+`).MatchString(err.Error()) {
		t.Errorf("strict error %q lacks record index and byte offset", err)
	}
}

// TestStrictLoadErrorOrder pins which error a strict load reports when
// several sources are damaged, serial or with the MRT build overlapping
// the text load: the first collector, in name order, whose MRT does not
// decode — record index and byte offset included — ahead of a damaged
// text archive; the text archive's error once the MRT is whole; and a
// missing mrt/ directory.
func TestStrictLoadErrorOrder(t *testing.T) {
	dir, _ := writeDamagedArchives(t, 2)
	drops, err := filepath.Glob(filepath.Join(dir, "drop", "*.txt"))
	if err != nil || len(drops) == 0 {
		t.Fatalf("no drop snapshots: %v", err)
	}
	if err := os.WriteFile(drops[0], []byte("not-a-prefix ; SBL1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// The expected errors, derived independently: each collector decoded
	// whole, in name order, and the text archives loaded alone.
	files, err := filepath.Glob(filepath.Join(dir, "mrt", "*.mrt"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	var decodeErr string
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mrt.ReadAll(bytes.NewReader(raw)); err != nil {
			decodeErr = "dropscope: load: archive: " + filepath.Base(path) + ": " + err.Error()
			break
		}
	}
	if decodeErr == "" {
		t.Fatal("the damaged collectors all decode")
	}
	_, textErr := archive.LoadWithOptions(dir, archive.LoadOptions{})
	if textErr == nil {
		t.Fatal("the damaged drop snapshot loads")
	}
	load := func(want string) {
		t.Helper()
		for _, workers := range []int{1, 0} {
			_, err := LoadStudyWithOptions(dir, smallConfig(), IngestOptions{Strict: true, Workers: workers})
			if err == nil || err.Error() != want {
				t.Errorf("workers=%d: error %v, want %s", workers, err, want)
			}
		}
	}
	load(decodeErr)

	clean := t.TempDir()
	if err := study(t).WriteArchives(clean); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(dir, "mrt")); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(clean, "mrt"), filepath.Join(dir, "mrt")); err != nil {
		t.Fatal(err)
	}
	load("dropscope: load: " + textErr.Error())

	// A missing mrt/ outranks the damaged text archive.
	if err := os.RemoveAll(filepath.Join(dir, "mrt")); err != nil {
		t.Fatal(err)
	}
	load("dropscope: load: open " + filepath.Join(dir, "mrt") + ": no such file or directory")
}

// TestLenientCleanArchivesByteIdenticalToStrict is the compatibility
// anchor: over undamaged archives the lenient path must render — and
// summarize — exactly what the strict path does.
func TestLenientCleanArchivesByteIdenticalToStrict(t *testing.T) {
	s := study(t)
	dir := t.TempDir()
	if err := s.WriteArchives(dir); err != nil {
		t.Fatal(err)
	}
	strict, err := LoadStudyWithOptions(dir, smallConfig(), IngestOptions{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	lenient, err := LoadStudyWithOptions(dir, smallConfig(), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sr, lr := strict.Results(), lenient.Results()
	if !lr.Health.Clean() {
		t.Errorf("lenient run over clean archives is not clean: %+v", lr.Health)
	}
	if a, b := renderBytes(t, sr), renderBytes(t, lr); !bytes.Equal(a, b) {
		t.Errorf("lenient render over clean archives diverged from strict (%d vs %d bytes)", len(b), len(a))
	}
	if lr.Summary().DataHealth != nil {
		t.Error("clean run summary grew a data_health section")
	}
}

// TestLenientCountsDamagedTextLines drives a non-MRT source through the
// quarantine accounting: a malformed DROP line must be skipped, counted
// against its snapshot file, and must not quarantine anything.
func TestLenientCountsDamagedTextLines(t *testing.T) {
	s := study(t)
	dir := t.TempDir()
	if err := s.WriteArchives(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "drop"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no drop snapshots: %v", err)
	}
	name := entries[0].Name()
	path := filepath.Join(dir, "drop", name)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("this-is-not-a-prefix ; SBL000000\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	loaded, err := LoadStudyWithOptions(dir, smallConfig(), IngestOptions{})
	if err != nil {
		t.Fatalf("lenient load failed on a single bad text line: %v", err)
	}
	r := loaded.Results()
	if r.Health.Clean() {
		t.Fatal("bad text line left health clean")
	}
	if len(r.Health.Quarantined) != 0 {
		t.Errorf("one bad line quarantined %v", r.Health.Quarantined)
	}
	found := false
	for _, src := range r.Health.Sources {
		if src.Name == "drop/"+name {
			found = src.Skips.Total() == 1
		}
	}
	if !found {
		t.Errorf("drop/%s did not record exactly one skip", name)
	}
}
