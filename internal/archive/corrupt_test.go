package archive

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dropscope/internal/sbl"
	"dropscope/internal/scenario"
)

// goldenDirs holds one generated archive per seed, and scaleDirs one
// per scale, removed by TestMain once every test has run.
var (
	goldenDirs = map[int64]string{}
	scaleDirs  = map[int]string{}
)

func TestMain(m *testing.M) {
	code := m.Run()
	for _, dir := range goldenDirs {
		os.RemoveAll(dir)
	}
	for _, dir := range scaleDirs {
		os.RemoveAll(dir)
	}
	os.Exit(code)
}

// scaleWorld returns the archive directory of the default world at the
// given scale, every day of it, generated and written once per process.
// Callers must not write to it.
func scaleWorld(tb testing.TB, scale int) string {
	tb.Helper()
	if scaleDirs[scale] == "" {
		p := scenario.DefaultParams()
		p.Scale = scale
		w, err := scenario.Generate(p)
		if err != nil {
			tb.Fatal(err)
		}
		dir, err := os.MkdirTemp("", "dropscope-scale-*")
		if err != nil {
			tb.Fatal(err)
		}
		if err := Write(dir, &Bundle{MRT: w.MRT, DROP: w.DROP, SBL: w.SBL, IRR: w.IRR, RPKI: w.RPKI, RIR: w.RIR}); err != nil {
			tb.Fatal(err)
		}
		scaleDirs[scale] = dir
	}
	return scaleDirs[scale]
}

// writeSmallWorld returns a fresh copy of a tiny world's archive
// directory; the world is generated and persisted once per process.
func writeSmallWorld(t *testing.T) string {
	t.Helper()
	return writeWorld(t, scenario.DefaultParams().Seed)
}

// writeWorld is writeSmallWorld for the world of another seed.
func writeWorld(t *testing.T, seed int64) string {
	t.Helper()
	if goldenDirs[seed] == "" {
		p := scenario.DefaultParams()
		p.Scale = 2048
		p.Seed = seed
		w, err := scenario.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		dir, err := os.MkdirTemp("", "dropscope-golden-*")
		if err != nil {
			t.Fatal(err)
		}
		if err := Write(dir, &Bundle{MRT: w.MRT, DROP: w.DROP, SBL: w.SBL, IRR: w.IRR, RPKI: w.RPKI, RIR: w.RIR}); err != nil {
			t.Fatal(err)
		}
		// Every rirstats day is a full snapshot, so any subset of them is
		// an archive too; one in eight keeps the per-test copy small.
		days, err := snapshotDays(filepath.Join(dir, "rirstats"), "")
		if err != nil {
			t.Fatal(err)
		}
		for i, day := range days {
			if i%8 != 0 {
				if err := os.RemoveAll(filepath.Join(dir, "rirstats", day.Compact())); err != nil {
					t.Fatal(err)
				}
			}
		}
		goldenDirs[seed] = dir
	}
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(goldenDirs[seed])); err != nil {
		t.Fatal(err)
	}
	return dir
}

// corrupt truncates or scribbles on one file matched by the glob.
func corrupt(t *testing.T, dir, glob string, mode string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, glob))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no files match %s", glob)
	}
	path := matches[0]
	switch mode {
	case "truncate":
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, info.Size()/2); err != nil {
			t.Fatal(err)
		}
	case "garbage":
		if err := os.WriteFile(path, []byte("!!! not a valid archive file !!!\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

// appendLine adds one line to the end of the file matched by the glob.
func appendLine(t *testing.T, dir, glob, line string) {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, glob))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no files match %s", glob)
	}
	f, err := os.OpenFile(matches[0], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(line + "\n"); err != nil {
		t.Fatal(err)
	}
}

// rirDay returns the name of the i-th rirstats day directory; negative i
// counts from the last.
func rirDay(t *testing.T, dir string, i int) string {
	t.Helper()
	days, err := snapshotDays(filepath.Join(dir, "rirstats"), "")
	if err != nil || len(days) < 2 {
		t.Fatalf("rirstats days: %v, %v", days, err)
	}
	if i < 0 {
		i += len(days)
	}
	return days[i].Compact()
}

// damageCases is every way these tests damage the small world's
// archive, and whether a strict Load must then fail: each corruption
// must produce a clean error — never a panic, never silent acceptance —
// and each dropping must be ignored. TestLoadMatchesReference runs them.
type damageCase struct {
	name        string
	damage      func(t *testing.T, dir string)
	strictFails bool
}

var damageCases = []damageCase{
	// The archive load never opens mrt/: the RIB build decodes it, and
	// fails there (internal/loader).
	{"truncated MRT", func(t *testing.T, dir string) { corrupt(t, dir, "mrt/*.mrt", "truncate") }, false},
	{"garbage DROP snapshot", func(t *testing.T, dir string) { corrupt(t, dir, "drop/*.txt", "garbage") }, true},
	{"garbage IRR journal", func(t *testing.T, dir string) { corrupt(t, dir, "irr/journal.rpsl", "garbage") }, true},
	{"garbage ROA CSV", func(t *testing.T, dir string) { corrupt(t, dir, "rpki/*.csv", "garbage") }, true},
	{"garbage RIR stats", func(t *testing.T, dir string) {
		corrupt(t, dir, "rirstats/*/delegated-arin-extended", "garbage")
	}, true},
	// Two damaged sources fail with the error of the one loaded first.
	{"garbage ROA CSV and RIR stats", func(t *testing.T, dir string) {
		corrupt(t, dir, "rirstats/*/delegated-arin-extended", "garbage")
		corrupt(t, dir, "rpki/*.csv", "garbage")
	}, true},
	{"truncated RIR stats on a later day", func(t *testing.T, dir string) {
		corrupt(t, dir, "rirstats/"+rirDay(t, dir, 3)+"/delegated-ripencc-extended", "truncate")
	}, true},
	{"bad count in RIR stats on a later day", func(t *testing.T, dir string) {
		appendLine(t, dir, "rirstats/"+rirDay(t, dir, 2)+"/delegated-apnic-extended",
			"apnic|AU|ipv4|1.0.0.0|many|20110811|allocated|A1")
	}, true},
	{"missing RIR stats file", func(t *testing.T, dir string) {
		if err := os.Remove(filepath.Join(dir, "rirstats", rirDay(t, dir, 1), "delegated-lacnic-extended")); err != nil {
			t.Fatal(err)
		}
	}, true},
	{"RIR stats block delegated twice on the first day", func(t *testing.T, dir string) {
		appendLine(t, dir, "rirstats/"+rirDay(t, dir, 0)+"/delegated-arin-extended",
			"arin|US|ipv4|250.0.0.0|256|20050101|allocated|A1")
		appendLine(t, dir, "rirstats/"+rirDay(t, dir, 0)+"/delegated-ripencc-extended",
			"ripencc|NL|ipv4|250.0.0.0|256|20050101|assigned|R1")
	}, true},
	{"RIR stats block first seen on the last day", func(t *testing.T, dir string) {
		appendLine(t, dir, "rirstats/"+rirDay(t, dir, -1)+"/delegated-afrinic-extended",
			"afrinic|ZA|ipv4|251.0.0.0|512|20050101|allocated|F1")
	}, true},
	// Droppings that do not match the expected names must be ignored.
	{"foreign files", func(t *testing.T, dir string) {
		for _, junk := range []string{"mrt/README", "drop/notes.md", "rpki/checksum.sha256", "rirstats/LATEST"} {
			if err := os.WriteFile(filepath.Join(dir, junk), []byte("hello"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}, false},
	// A rirstats day is a directory: a regular file with a day's name is
	// one more dropping, not a day that then fails to open.
	{"regular file named as a rirstats day", func(t *testing.T, dir string) {
		if err := os.WriteFile(filepath.Join(dir, "rirstats", "20200101"), []byte("hello"), 0o644); err != nil {
			t.Fatal(err)
		}
	}, false},
}

func TestLoadRejectsMissingDirectory(t *testing.T) {
	if _, err := LoadWithOptions(t.TempDir(), LoadOptions{}); err == nil {
		t.Error("empty directory should fail to load")
	}
}

func TestSBLRecordWithAtSignInText(t *testing.T) {
	// Record text lines are preserved; emails with '@' mid-line survive
	// the store format (only line-leading '@' is structural).
	dir := t.TempDir()
	path := filepath.Join(dir, "records.txt")
	content := "@SBL1\nhijacked range, contact billing@ahostinginc.com for removal\nsecond line\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	db := sbl.NewDB()
	if err := loadSBL(path, db, nil); err != nil {
		t.Fatal(err)
	}
	rec, ok := db.Get("SBL1")
	if !ok || !strings.Contains(rec.Text, "billing@ahostinginc.com") || !strings.Contains(rec.Text, "second line") {
		t.Errorf("record = %+v", rec)
	}
}
