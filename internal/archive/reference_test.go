package archive

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"dropscope/internal/drop"
	"dropscope/internal/filesum"
	"dropscope/internal/ingest"
	"dropscope/internal/irr"
	"dropscope/internal/netx"
	"dropscope/internal/rirstats"
	"dropscope/internal/rpki"
	"dropscope/internal/sbl"
	"dropscope/internal/timex"
)

// referenceLoad is the naive loader the concurrent one is held to: the
// five text sources one after another, every line of every file parsed
// (no day diff), every rirstats day parsed into records and diffed a
// record at a time under "registry|prefix" string keys, and both ROA
// sets sorted in full on every snapshot day.
func referenceLoad(dir string, h *ingest.Health) (*Bundle, error) {
	b := &Bundle{SBL: sbl.NewDB(), DROP: drop.NewArchive(), IRR: &irr.DB{}, RPKI: &rpki.Archive{}, RIR: &rirstats.Timeline{}}
	if err := referenceLoadDROP(filepath.Join(dir, "drop"), b.DROP, h); err != nil {
		return nil, err
	}
	if err := loadSBL(filepath.Join(dir, "sbl", "records.txt"), b.SBL, h); err != nil {
		return nil, err
	}
	if err := loadIRR(filepath.Join(dir, "irr", "journal.rpsl"), b.IRR, h); err != nil {
		return nil, err
	}
	if err := referenceLoadRPKI(filepath.Join(dir, "rpki"), b.RPKI, h); err != nil {
		return nil, err
	}
	if err := referenceLoadRIRStats(filepath.Join(dir, "rirstats"), b.RIR, h); err != nil {
		return nil, err
	}
	return b, nil
}

// referenceLoadDROP parses every DROP snapshot in full.
func referenceLoadDROP(dir string, a *drop.Archive, h *ingest.Health) error {
	days, err := snapshotDays(dir, ".txt")
	if err != nil {
		return err
	}
	for _, day := range days {
		name := day.Compact() + ".txt"
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		entries, err := drop.ParseHealth(f, h.Source("drop/"+name))
		f.Close()
		if err != nil {
			return err
		}
		if err := a.AddSnapshot(day, entries); err != nil {
			return err
		}
	}
	return nil
}

func referenceLoadRPKI(dir string, a *rpki.Archive, h *ingest.Health) error {
	days, err := snapshotDays(dir, ".csv")
	if err != nil {
		return err
	}
	sorted := func(m map[rpki.ROA]bool) []rpki.ROA {
		out := make([]rpki.ROA, 0, len(m))
		for r := range m {
			out = append(out, r)
		}
		sortROAs(out)
		return out
	}
	prev := make(map[rpki.ROA]bool)
	for _, day := range days {
		name := day.Compact() + ".csv"
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		var roas []rpki.ROA
		if h != nil {
			roas, err = rpki.ParseSnapshotCSVHealth(f, h.Source("rpki/"+name))
		} else {
			roas, err = rpki.ParseSnapshotCSV(f)
		}
		f.Close()
		if err != nil {
			return err
		}
		cur := make(map[rpki.ROA]bool, len(roas))
		for _, r := range roas {
			cur[r] = true
		}
		for _, r := range sorted(prev) {
			if !cur[r] {
				if err := a.Revoke(day, r); err != nil {
					return err
				}
			}
		}
		for _, r := range sorted(cur) {
			if !prev[r] {
				if err := a.Add(day, r); err != nil {
					return err
				}
			}
		}
		prev = cur
	}
	return nil
}

func referenceLoadRIRStats(dir string, t *rirstats.Timeline, h *ingest.Health) error {
	days, err := snapshotDays(dir, "")
	if err != nil {
		return err
	}
	if len(days) == 0 {
		return fmt.Errorf("archive: no rirstats snapshots in %s", dir)
	}
	first := true
	prev := make(map[string]rirstats.Status)
	for _, day := range days {
		ddir := filepath.Join(dir, day.Compact())
		var recs []rirstats.Record
		for _, rir := range rirstats.AllRIRs {
			name := fmt.Sprintf("delegated-%s-extended", rir)
			f, err := os.Open(filepath.Join(ddir, name))
			if err != nil {
				return err
			}
			var rs []rirstats.Record
			if h != nil {
				rs, err = rirstats.ParseFileHealth(f, h.Source("rirstats/"+day.Compact()+"/"+name))
			} else {
				rs, err = rirstats.ParseFile(f)
			}
			f.Close()
			if err != nil {
				return err
			}
			recs = append(recs, rs...)
		}
		for _, rec := range recs {
			for _, blk := range rec.Prefixes() {
				k := string(rec.Registry) + "|" + blk.String()
				if first {
					if err := t.Manage(blk, rec.Registry, rec.Status); err != nil {
						return err
					}
					prev[k] = rec.Status
					continue
				}
				if prev[k] != rec.Status {
					if err := t.SetStatus(blk, day, rec.Status); err != nil {
						return err
					}
					prev[k] = rec.Status
				}
			}
		}
		first = false
	}
	return nil
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestLoadMatchesReference holds the loader, on one goroutine and on
// several, to the reference over the undamaged archive and every damage
// case: a strict load fails exactly where the case says it must, with
// the same error text in either mode when a load fails, and otherwise
// the same timeline, the same ROA journal and the same health report.
func TestLoadMatchesReference(t *testing.T) {
	cases := append([]damageCase{{name: "undamaged", damage: func(*testing.T, string) {}}}, damageCases...)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := writeSmallWorld(t)
			c.damage(t, dir)
			for _, lenient := range []bool{false, true} {
				health := func() *ingest.Health {
					if lenient {
						return ingest.NewHealth()
					}
					return nil
				}
				wantH := health()
				want, wantErr := referenceLoad(dir, wantH)
				if !lenient && (wantErr != nil) != c.strictFails {
					t.Errorf("strict load error %v, want failure = %v", wantErr, c.strictFails)
				}
				for _, workers := range []int{1, 3} {
					h := health()
					got, err := LoadWithOptions(dir, LoadOptions{Health: h, Workers: workers})
					if errText(err) != errText(wantErr) {
						t.Fatalf("lenient=%v workers=%d: error %q, reference %q", lenient, workers, errText(err), errText(wantErr))
					}
					if err != nil {
						continue
					}
					compareTimelines(t, got.RIR, want.RIR)
					if !reflect.DeepEqual(got.RPKI.Events(), want.RPKI.Events()) {
						t.Errorf("lenient=%v workers=%d: ROA journal differs from the reference's", lenient, workers)
					}
					if lenient && !reflect.DeepEqual(h.Report(), wantH.Report()) {
						t.Errorf("workers=%d: health report\n got %+v\nwant %+v", workers, h.Report(), wantH.Report())
					}
				}
			}
		})
	}
}

func compareTimelines(t *testing.T, got, want *rirstats.Timeline) {
	t.Helper()
	if !reflect.DeepEqual(got.Blocks(), want.Blocks()) {
		t.Fatal("timeline: managed blocks differ from the reference's")
	}
	days := want.ChangeDays()
	if !reflect.DeepEqual(got.ChangeDays(), days) {
		t.Fatalf("timeline: change days %v, reference %v", got.ChangeDays(), days)
	}
	if len(days) == 0 {
		t.Fatal("timeline: no change days to compare")
	}
	for _, day := range append(days, days[0]-1) {
		if !reflect.DeepEqual(got.RecordsAt(day), want.RecordsAt(day)) {
			t.Fatalf("timeline: records at %v differ from the reference's", day)
		}
	}
}

// TestRIRDayAllocations pins the loader's allocations per day as
// independent of the files' length: reading a day and applying it as a
// diff against the day before costs the same over 10-line files as over
// 5000-line ones, once the scratch buffers have grown, both for a day
// that changes nothing but the version lines and for one that changes
// one line.
func TestRIRDayAllocations(t *testing.T) {
	perDay := func(lines int, change bool) float64 {
		dir := t.TempDir()
		days := []timex.Day{timex.MustParseDay("2020-01-01"), timex.MustParseDay("2020-01-02")}
		for d, day := range days {
			for i, rir := range rirstats.AllRIRs {
				recs := make([]rirstats.Record, lines)
				for j := range recs {
					recs[j] = rirstats.Record{Registry: rir, CC: "ZZ", Start: netx.Addr(i<<24 | j<<8), Count: 256, Status: rirstats.Allocated, OpaqueID: "o"}
				}
				if change && d == 1 && i == 2 {
					recs[lines/2].Status = rirstats.Available
				}
				path := filepath.Join(dir, "rirstats", day.Compact(), fmt.Sprintf("delegated-%s-extended", rir))
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				f, err := os.Create(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := rirstats.WriteFile(f, rir, day, recs); err != nil {
					t.Fatal(err)
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
		files, h := filesum.Open(dir, nil), ingest.NewHealth()
		l := newRIRLoad(&rirstats.Timeline{}, h, nil, days)
		sc := newRIRScratch()
		apply := func(i int, rel string) {
			sc, _ = l.apply(i, sc, readRIRDay(files, rel, sc, false))
			if sc == nil {
				t.Fatalf("day %s did not apply", rel)
			}
		}
		// Name the day directories (Compact formats through fmt) outside
		// the runs, then register the first day's blocks; each run applies
		// the second day over the first and the first back over it. Collect
		// the fixture's garbage now: a collection during the runs, or under
		// -race a dropped Put, empties fmt's printer pool, and the refill
		// would be counted.
		rel0, rel1 := days[0].Compact(), days[1].Compact()
		apply(0, rel0)
		runtime.GC()
		return testing.AllocsPerRun(5, func() {
			apply(1, rel1)
			apply(1, rel0)
		})
	}
	for _, change := range []bool{false, true} {
		short, long := perDay(10, change), perDay(5000, change)
		if short != long {
			t.Errorf("one changed line = %v: allocations per day pair: %v over 10-line files, %v over 5000-line files", change, short, long)
		}
	}
}
