// Package archive persists and reloads the full dataset as on-disk
// archive files in each substrate's native format:
//
//	dir/
//	  mrt/<collector>.mrt           binary MRT streams (RFC 6396)
//	  drop/<YYYYMMDD>.txt           DROP snapshots, changed days only
//	  sbl/records.txt               SBL record store
//	  irr/journal.rpsl              journaled RPSL objects
//	  rpki/<YYYYMMDD>.csv           ROA snapshots, changed days only
//	  rirstats/<YYYYMMDD>/delegated-<rir>-extended  RIR stats, changed days
//
// Loading reconstructs every journaled text store by diffing consecutive
// snapshots — the same reassembly the paper's pipeline performed over the
// public archives. The RIB build decodes the MRT streams.
package archive

import (
	"bufio"
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"

	"dropscope/internal/drop"
	"dropscope/internal/filesum"
	"dropscope/internal/ingest"
	"dropscope/internal/irr"
	"dropscope/internal/mrt"
	"dropscope/internal/netx"
	"dropscope/internal/rirstats"
	"dropscope/internal/rpki"
	"dropscope/internal/sbl"
	"dropscope/internal/timex"
)

// Bundle is the set of stores the archive directory holds. MRT is
// written, never loaded: the RIB build streams the files itself.
type Bundle struct {
	MRT  map[string][]mrt.Record
	DROP *drop.Archive
	SBL  *sbl.DB
	IRR  *irr.DB
	RPKI *rpki.Archive
	RIR  *rirstats.Timeline
}

// Write persists the bundle under dir, creating subdirectories.
func Write(dir string, b *Bundle) error {
	for _, sub := range []string{"mrt", "drop", "sbl", "irr", "rpki", "rirstats"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return err
		}
	}
	if err := writeMRT(filepath.Join(dir, "mrt"), b.MRT); err != nil {
		return err
	}
	if err := writeDROP(filepath.Join(dir, "drop"), b.DROP); err != nil {
		return err
	}
	if err := writeSBL(filepath.Join(dir, "sbl", "records.txt"), b.SBL); err != nil {
		return err
	}
	if err := writeIRR(filepath.Join(dir, "irr", "journal.rpsl"), b.IRR); err != nil {
		return err
	}
	if err := writeRPKI(filepath.Join(dir, "rpki"), b.RPKI); err != nil {
		return err
	}
	return writeRIRStats(filepath.Join(dir, "rirstats"), b.RIR)
}

// LoadOptions configures LoadWithOptions.
type LoadOptions struct {
	// Health enables lenient loading: malformed lines are skipped, not
	// fatal, and classified per source (archive-relative paths like
	// "drop/20190605.txt") for the caller to judge. Nil loads strictly.
	Health *ingest.Health
	// SkipMRT does nothing: no load opens mrt/, which the RIB build
	// decodes (internal/loader). It is kept for callers that set it.
	SkipMRT bool
	// Workers bounds the goroutines parsing rirstats day directories or
	// summing the text files; <= 0 means runtime.GOMAXPROCS(0). Above 1
	// the five sources also load concurrently with each other; at 1 the
	// whole load runs on the calling goroutine, one source after another.
	Workers int
	// Journal, when non-nil, keeps the text journal (journal.go): DROP,
	// RPKI and rirstats are replayed from it when it was recorded from
	// the very bytes the archive holds, a stale one is cleared, and a
	// lenient load that parses them without damage records a new one.
	Journal JournalStore
	// Files, when non-nil, is the archive manifest the journal's file
	// sums come from and are recorded into (internal/filesum): a file
	// whose row holds is not read to be hashed. Nil hashes every file
	// the journal needs.
	Files *filesum.Manifest
}

// LoadWithOptions reads the text archives of a bundle previously
// persisted with Write; Bundle.MRT stays nil.
func LoadWithOptions(dir string, opts LoadOptions) (*Bundle, error) {
	h, js, files := opts.Health, opts.Journal, opts.Files
	if files == nil {
		files = filesum.Open(dir, nil)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	b := &Bundle{SBL: sbl.NewDB(), DROP: drop.NewArchive(), IRR: &irr.DB{}, RPKI: &rpki.Archive{}, RIR: &rirstats.Timeline{}}
	var rec *record
	if js != nil && h != nil {
		rec = new(record)
	}
	// One loader per source, each filling its own field of b, in the
	// order their errors are reported. SBL and IRR always parse; DROP,
	// RPKI and rirstats only when the journal does not replay.
	loaders := []func() error{
		func() error { return loadDROP(files, b.DROP, h, rec) },
		func() error { return loadSBL(filepath.Join(dir, "sbl", "records.txt"), b.SBL, h) },
		func() error { return loadIRR(filepath.Join(dir, "irr", "journal.rpsl"), b.IRR, h) },
		func() error { return loadRPKI(files, b.RPKI, h, rec) },
		func() error { return loadRIRStats(files, b.RIR, h, workers, rec) },
	}
	errs := make([]error, len(loaders))
	var wg sync.WaitGroup
	run := func(i int) {
		if workers == 1 {
			errs[i] = loaders[i]()
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = loaders[i]()
		}()
	}
	run(1)
	run(2)
	replayed := js != nil && replay(files, js, b, h, workers)
	if !replayed {
		run(0)
		run(3)
		run(4)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if rec != nil && !replayed {
		rec.save(js, b, h)
	}
	return b, nil
}

// --- MRT ----------------------------------------------------------------

func writeMRT(dir string, streams map[string][]mrt.Record) error {
	names := make([]string, 0, len(streams))
	for n := range streams {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := os.Create(filepath.Join(dir, name+".mrt"))
		if err != nil {
			return err
		}
		bw := bufio.NewWriter(f)
		w := mrt.NewWriter(bw)
		for _, rec := range streams[name] {
			if err := w.Write(rec); err != nil {
				f.Close()
				return err
			}
		}
		if err := bw.Flush(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// --- DROP ---------------------------------------------------------------

func writeDROP(dir string, a *drop.Archive) error {
	for _, day := range a.Days() {
		entries, _ := a.Snapshot(day)
		f, err := os.Create(filepath.Join(dir, day.Compact()+".txt"))
		if err != nil {
			return err
		}
		err = drop.Write(f, day, entries)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// loadDROP adds each day's snapshot in day order. With rec, it also
// keeps each file's sum for the journal.
func loadDROP(files *filesum.Manifest, a *drop.Archive, h *ingest.Health, rec *record) error {
	days, err := snapshotDays(files.Path("drop"), ".txt")
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	for _, day := range days {
		path := "drop/" + day.Compact() + ".txt"
		sum, err := files.Read(path, &buf, rec != nil)
		if err != nil {
			return err
		}
		if rec != nil {
			rec.drop = append(rec.drop, fileSum{path, sum})
		}
		entries, err := drop.ParseHealth(bytes.NewReader(buf.Bytes()), h.Source(path))
		if err != nil {
			return err
		}
		if err := a.AddSnapshot(day, entries); err != nil {
			return err
		}
	}
	return nil
}

// snapshotDays lists the days for files named <YYYYMMDD><ext> in dir,
// or for directories named <YYYYMMDD> when ext is empty (rirstats keeps
// a directory per day). A symbolic link counts as what it points to.
func snapshotDays(dir, ext string) ([]timex.Day, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var days []timex.Day
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), ext)
		if !ok {
			continue
		}
		d, err := timex.ParseDay(name)
		if err != nil {
			continue
		}
		isDir := e.IsDir()
		if e.Type()&fs.ModeSymlink != 0 {
			if st, err := os.Stat(filepath.Join(dir, e.Name())); err == nil {
				isDir = st.IsDir()
			}
		}
		if isDir != (ext == "") {
			continue
		}
		days = append(days, d)
	}
	sort.Slice(days, func(i, j int) bool { return days[i] < days[j] })
	return days, nil
}

// --- SBL ----------------------------------------------------------------

// The store format ("@<ID>" then the record text until the next '@')
// lives in the sbl package; the archive layer only handles the files.
func writeSBL(path string, db *sbl.DB) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = sbl.WriteStore(f, db)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func loadSBL(path string, db *sbl.DB, h *ingest.Health) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return sbl.ParseStoreHealth(f, db, h.Source("sbl/records.txt"))
}

// --- IRR ----------------------------------------------------------------

func writeIRR(path string, db *irr.DB) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = db.WriteJournal(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func loadIRR(path string, db *irr.DB, h *ingest.Health) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	parsed, err := irr.ParseJournalHealth(raw, h.Source("irr/journal.rpsl"))
	if err != nil {
		return err
	}
	*db = *parsed
	return nil
}

// --- RPKI ---------------------------------------------------------------

func writeRPKI(dir string, a *rpki.Archive) error {
	for _, day := range a.ChangeDays() {
		f, err := os.Create(filepath.Join(dir, day.Compact()+".csv"))
		if err != nil {
			return err
		}
		err = a.WriteSnapshotCSV(f, day)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// loadRPKI journals, day by day, the ROAs each snapshot revokes and
// creates against the one before. With rec, it also keeps each file's
// sum for the journal.
func loadRPKI(files *filesum.Manifest, a *rpki.Archive, h *ingest.Health, rec *record) error {
	days, err := snapshotDays(files.Path("rpki"), ".csv")
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	prev := make(map[rpki.ROA]bool)
	for _, day := range days {
		path := "rpki/" + day.Compact() + ".csv"
		sum, err := files.Read(path, &buf, rec != nil)
		if err != nil {
			return err
		}
		if rec != nil {
			rec.rpki = append(rec.rpki, fileSum{path, sum})
		}
		roas, err := rpki.ParseSnapshotCSVHealth(bytes.NewReader(buf.Bytes()), h.Source(path))
		if err != nil {
			return err
		}
		cur := make(map[rpki.ROA]bool, len(roas))
		var added []rpki.ROA
		for _, r := range roas {
			if !cur[r] && !prev[r] {
				added = append(added, r)
			}
			cur[r] = true
		}
		var revoked []rpki.ROA
		for r := range prev {
			if !cur[r] {
				revoked = append(revoked, r)
			}
		}
		// Revocations then creations, deterministically ordered.
		sortROAs(revoked)
		for _, r := range revoked {
			if err := a.Revoke(day, r); err != nil {
				return err
			}
		}
		sortROAs(added)
		for _, r := range added {
			if err := a.Add(day, r); err != nil {
				return err
			}
		}
		prev = cur
	}
	return nil
}

func sortROAs(roas []rpki.ROA) {
	sort.Slice(roas, func(i, j int) bool {
		a, b := roas[i], roas[j]
		if c := a.Prefix.Compare(b.Prefix); c != 0 {
			return c < 0
		}
		if a.ASN != b.ASN {
			return a.ASN < b.ASN
		}
		if a.MaxLength != b.MaxLength {
			return a.MaxLength < b.MaxLength
		}
		return a.TA < b.TA
	})
}

// --- RIR stats ------------------------------------------------------------

func writeRIRStats(dir string, t *rirstats.Timeline) error {
	days := t.ChangeDays()
	// Always include a base snapshot on the earliest representable day of
	// interest: the day before the first change (or epoch if none).
	base := timex.Day(0)
	if len(days) > 0 {
		base = days[0] - 1
	}
	days = append([]timex.Day{base}, days...)
	for _, day := range days {
		ddir := filepath.Join(dir, day.Compact())
		if err := os.MkdirAll(ddir, 0o755); err != nil {
			return err
		}
		recs := t.RecordsAt(day)
		for _, rir := range rirstats.AllRIRs {
			f, err := os.Create(filepath.Join(ddir, fmt.Sprintf("delegated-%s-extended", rir)))
			if err != nil {
				return err
			}
			err = rirstats.WriteFile(f, rir, day, recs)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// rirKey identifies a block in the diff of consecutive rirstats days.
type rirKey struct {
	registry rirstats.RIR
	prefix   netx.Prefix
}

// loadRIRStats rebuilds the timeline from the day directories: the
// first day registers every block, each later day journals the blocks
// whose status differs from the day before. Days are parsed up to
// workers at a time and applied one at a time in day order, so the
// timeline, the health counts and the error a damaged archive fails
// with do not depend on workers. With rec, it also keeps each file's
// sum and every Manage and SetStatus call for the journal.
func loadRIRStats(files *filesum.Manifest, t *rirstats.Timeline, h *ingest.Health, workers int, rec *record) error {
	dir := files.Path("rirstats")
	days, err := snapshotDays(dir, "")
	if err != nil {
		return err
	}
	if len(days) == 0 {
		return fmt.Errorf("archive: no rirstats snapshots in %s", dir)
	}
	prev := make(map[rirKey]rirstats.Status)
	apply := func(i int, sc *rirScratch) error {
		if rec != nil {
			rec.rir = append(rec.rir, sc.sums...)
		}
		for _, b := range sc.blocks {
			k := rirKey{b.Registry, b.Prefix}
			if i == 0 {
				if err := t.Manage(b.Prefix, b.Registry, b.Status); err != nil {
					return err
				}
				if rec != nil {
					rec.manage = append(rec.manage, b)
				}
				prev[k] = b.Status
			} else if prev[k] != b.Status {
				if err := t.SetStatus(b.Prefix, days[i], b.Status); err != nil {
					return err
				}
				if rec != nil {
					rec.changes = append(rec.changes, rirChange{days[i], b})
				}
				prev[k] = b.Status
			}
		}
		return nil
	}

	if workers == 1 {
		var sc rirScratch
		for i, day := range days {
			if err := parseRIRDay(files, day.Compact(), h, &sc, rec != nil); err != nil {
				return err
			}
			if err := apply(i, &sc); err != nil {
				return err
			}
		}
		return nil
	}

	type parsed struct {
		*rirScratch
		err error
	}
	// pending queues one slot per day in day order. A day is parsed once
	// its slot is queued, so the queue's capacity plus the slot being
	// applied is the look-ahead: at most workers days are parsed or held
	// parsed at once, however many days the archive has.
	pending := make(chan chan parsed, workers-1)
	// free hands applied days' buffers back to the parsers.
	free := make(chan *rirScratch, workers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(stop)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(pending)
		for _, day := range days {
			slot := make(chan parsed, 1)
			select {
			case pending <- slot:
			case <-stop:
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				var sc *rirScratch
				select {
				case sc = <-free:
				default:
					sc = new(rirScratch)
				}
				slot <- parsed{sc, parseRIRDay(files, day.Compact(), h, sc, rec != nil)}
			}()
		}
	}()
	i := 0
	for slot := range pending {
		p := <-slot
		if p.err != nil {
			return p.err
		}
		if err := apply(i, p.rirScratch); err != nil {
			return err
		}
		i++
		select {
		case free <- p.rirScratch:
		default:
		}
	}
	return nil
}

// rirScratch is what parsing a day fills and the next day parsed can
// reuse: a file's bytes, the day's blocks and, for the journal, its
// files' sums.
type rirScratch struct {
	file   bytes.Buffer
	blocks []rirstats.Block
	sums   []fileSum
}

// parseRIRDay leaves the blocks of the five files of the rirstats day
// directory named day in sc.blocks, in registry then file order, and
// with hash their sums in sc.sums.
func parseRIRDay(files *filesum.Manifest, day string, h *ingest.Health, sc *rirScratch, hash bool) error {
	sc.blocks, sc.sums = sc.blocks[:0], sc.sums[:0]
	dayDir := "rirstats/" + day + "/"
	for _, name := range rirFiles {
		path := dayDir + name
		sum, err := files.Read(path, &sc.file, hash)
		if err != nil {
			return err
		}
		if hash {
			sc.sums = append(sc.sums, fileSum{path, sum})
		}
		if sc.blocks, err = rirstats.AppendBlocks(sc.blocks, sc.file.Bytes(), h.Source(path)); err != nil {
			return err
		}
	}
	return nil
}
