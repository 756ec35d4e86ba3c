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
	"fmt"
	"io/fs"
	"math"
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
	// Workers bounds the goroutines summing the text files for a
	// replay; <= 0 means runtime.GOMAXPROCS(0). Above 1 the five sources
	// also load concurrently with each other; at 1 the whole load runs
	// on the calling goroutine, one source after another. Each source
	// reads its days serially whatever the value.
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
		func() error { return loadRIRStats(files, b.RIR, h, rec) },
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

// loadDROP adds each day's snapshot in day order, parsing each file as a
// diff against the day before's (dropDiff). With rec, it also keeps each
// file's sum for the journal.
func loadDROP(files *filesum.Manifest, a *drop.Archive, h *ingest.Health, rec *record) error {
	days, err := snapshotDays(files.Path("drop"), ".txt")
	if err != nil {
		return err
	}
	var d dropDiff
	for _, day := range days {
		path := "drop/" + day.Compact() + ".txt"
		sum, err := files.Read(path, &d.cur.buf, rec != nil)
		if err != nil {
			return err
		}
		if rec != nil {
			rec.drop = append(rec.drop, fileSum{path, sum})
		}
		if err := d.next(h.Source(path)); err != nil {
			return err
		}
		if err := a.AddSnapshot(day, d.day.entries); err != nil {
			return err
		}
	}
	return nil
}

// dropDiff carries a DROP load from one day's snapshot to the next: the
// day before's file and its entries.
type dropDiff struct {
	prev, cur dayText
	day       dropLines // the day before's entries; after next, the day's
	in, spare dropLines // the inserted lines' entries; the next day's, being built
}

// dropLines is a snapshot's entries, each with the number of its line.
type dropLines struct {
	entries []drop.Entry
	lines   []int
}

func (s *dropLines) add(e drop.Entry, line int) {
	s.entries, s.lines = append(s.entries, e), append(s.lines, line)
}

// next parses d.cur against d.prev, leaves its entries in d.day and
// makes it the day before. The entries of carried lines are the day
// before's, their lines shifted by what the hunks before them added.
func (d *dropDiff) next(src *ingest.Source) error {
	d.in = dropLines{d.in.entries[:0], d.in.lines[:0]}
	err := parseDay(&d.prev, &d.cur, false, src, func(data []byte, line int, removed bool, src *ingest.Source) error {
		return drop.ParseLines(data, line, src, func(n int, e drop.Entry) {
			if !removed {
				d.in.add(e, n)
			}
		})
	})
	if err != nil {
		return err
	}
	// In file order: before each hunk the carried run since the last
	// one, then the hunk's inserted entries; after the last, the rest.
	old, cur := d.prev.buf.Bytes(), d.cur.buf.Bytes()
	out := dropLines{d.spare.entries[:0], d.spare.lines[:0]}
	oldEnd, curEnd, j, k := 0, 0, 0, 0
	carry := func(upTo int, shift int) {
		for ; j < len(d.day.lines) && d.day.lines[j] <= upTo; j++ {
			if n := d.day.lines[j]; n > oldEnd {
				out.add(d.day.entries[j], n+shift)
			}
		}
	}
	for _, h := range d.cur.hunks {
		carry(h.old.line, h.cur.line-h.old.line)
		oldEnd = h.old.line + lineCount(old[h.old.lo:h.old.hi])
		curEnd = h.cur.line + lineCount(cur[h.cur.lo:h.cur.hi])
		for ; k < len(d.in.lines) && d.in.lines[k] <= curEnd; k++ {
			out.add(d.in.entries[k], d.in.lines[k])
		}
	}
	carry(math.MaxInt, curEnd-oldEnd)
	d.day, d.spare = out, d.day
	d.prev, d.cur = d.cur, d.prev
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
// creates against the one before, parsing each file as a diff against
// the day before's (roaDiff). With rec, it also keeps each file's sum
// for the journal.
func loadRPKI(files *filesum.Manifest, a *rpki.Archive, h *ingest.Health, rec *record) error {
	days, err := snapshotDays(files.Path("rpki"), ".csv")
	if err != nil {
		return err
	}
	d := roaDiff{rows: make(map[rpki.ROA]int), delta: make(map[rpki.ROA]int)}
	for _, day := range days {
		path := "rpki/" + day.Compact() + ".csv"
		sum, err := files.Read(path, &d.cur.buf, rec != nil)
		if err != nil {
			return err
		}
		if rec != nil {
			rec.rpki = append(rec.rpki, fileSum{path, sum})
		}
		if err := d.next(h.Source(path)); err != nil {
			return err
		}
		// Revocations then creations, deterministically ordered.
		for _, r := range d.revoked {
			if err := a.Revoke(day, r); err != nil {
				return err
			}
		}
		for _, r := range d.added {
			if err := a.Add(day, r); err != nil {
				return err
			}
		}
	}
	return nil
}

// roaDiff carries an RPKI load from one day's snapshot to the next: the
// day before's file and how many of its rows hold each ROA. Rows are
// diffed on their roaKey, so a row whose dates alone changed is carried.
type roaDiff struct {
	prev, cur      dayText
	rows           map[rpki.ROA]int
	delta          map[rpki.ROA]int // the day's change to rows
	parsed         []rpki.ROA
	revoked, added []rpki.ROA
}

// next parses d.cur against d.prev and makes it the day before. It
// leaves in d.revoked the ROAs no row holds any more and in d.added
// those no row held before, each in sortROAs order.
func (d *roaDiff) next(src *ingest.Source) error {
	clear(d.delta)
	err := parseDay(&d.prev, &d.cur, true, src, func(data []byte, line int, removed bool, src *ingest.Source) (err error) {
		d.parsed, err = rpki.AppendSnapshotCSV(d.parsed[:0], data, line == 0, src)
		for _, r := range d.parsed {
			if removed {
				d.delta[r]--
			} else {
				d.delta[r]++
			}
		}
		return err
	})
	if err != nil {
		return err
	}
	d.revoked, d.added = d.revoked[:0], d.added[:0]
	for r, dn := range d.delta {
		n := d.rows[r]
		switch {
		case n > 0 && n+dn == 0:
			d.revoked = append(d.revoked, r)
		case n == 0 && dn > 0:
			d.added = append(d.added, r)
		}
		if n+dn == 0 {
			delete(d.rows, r)
		} else {
			d.rows[r] = n + dn
		}
	}
	sortROAs(d.revoked)
	sortROAs(d.added)
	d.prev, d.cur = d.cur, d.prev
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

// rirKeyState is what a load knows of a key: its status as last applied,
// and how many blocks of the last day counted hold it.
type rirKeyState struct {
	status rirstats.Status
	n      int
}

// loadRIRStats rebuilds the timeline from the day directories: the
// first day registers every block, each later day journals the blocks
// whose status differs from the day before. rirLoad.apply reads (and
// with rec hashes), diffs, parses and applies one day at a time in day
// order. With rec, it also keeps each file's sum and every Manage and
// SetStatus call for the journal.
func loadRIRStats(files *filesum.Manifest, t *rirstats.Timeline, h *ingest.Health, rec *record) error {
	dir := files.Path("rirstats")
	days, err := snapshotDays(dir, "")
	if err != nil {
		return err
	}
	if len(days) == 0 {
		return fmt.Errorf("archive: no rirstats snapshots in %s", dir)
	}
	l := newRIRLoad(files, t, h, rec, days)
	for i, day := range days {
		if err := l.apply(i, day.Compact()); err != nil {
			return err
		}
	}
	return nil
}

// rirLoad carries a rirstats load from one day to the next.
type rirLoad struct {
	files *filesum.Manifest
	t     *rirstats.Timeline
	h     *ingest.Health
	rec   *record
	days  []timex.Day

	// prev and cur hold each registry's file of the day before (empty
	// before the first day) and of the day.
	prev, cur []dayText
	keys      map[rirKey]rirKeyState
	dups      int // keys more than one block of the day before holds

	removed, inserted, all []rirstats.Block
	parse                  lineParser
}

func newRIRLoad(files *filesum.Manifest, t *rirstats.Timeline, h *ingest.Health, rec *record, days []timex.Day) *rirLoad {
	l := &rirLoad{files: files, t: t, h: h, rec: rec, days: days, keys: make(map[rirKey]rirKeyState),
		prev: make([]dayText, len(rirFiles)), cur: make([]dayText, len(rirFiles))}
	l.parse = func(data []byte, line int, removed bool, src *ingest.Source) (err error) {
		if removed {
			l.removed, err = rirstats.AppendBlocks(l.removed, data, line, src)
		} else {
			l.inserted, err = rirstats.AppendBlocks(l.inserted, data, line, src)
		}
		return err
	}
	return l
}

// apply reads the five files of day i, whose directory is named day,
// in registry order, diffs and parses each against the day before's,
// and journals the day's changes: on the first day every block is
// registered, on a later one each inserted block whose status differs
// from its key's. A line carried from the day before holds a key one
// block held then and one holds now, so its status is already its
// key's. That holds only while each key is on one block, so a day on
// which some key is on two, and the day after it, apply every block of
// the day in file order instead, as a parse of every line would.
func (l *rirLoad) apply(i int, day string) error {
	l.removed, l.inserted = l.removed[:0], l.inserted[:0]
	for j, name := range rirFiles {
		path := "rirstats/" + day + "/" + name
		sum, err := l.files.Read(path, &l.cur[j].buf, l.rec != nil)
		if err != nil {
			return err
		}
		if l.rec != nil {
			l.rec.rir = append(l.rec.rir, fileSum{path, sum})
		}
		if err := parseDay(&l.prev[j], &l.cur[j], false, l.h.Source(path), l.parse); err != nil {
			return err
		}
	}
	dupsBefore := l.dups
	l.count(l.removed, -1)
	l.count(l.inserted, 1)
	blocks := l.inserted
	if l.dups > 0 || dupsBefore > 0 {
		// Every line of the day has been parsed, today or on a day before
		// it, and counted: this lenient parse into a scratch source only
		// collects the blocks, and cannot fail.
		var scratch ingest.Source
		l.all = l.all[:0]
		for j := range l.cur {
			l.all, _ = rirstats.AppendBlocks(l.all, l.cur[j].buf.Bytes(), 0, &scratch)
		}
		blocks = l.all
	}
	for _, b := range blocks {
		k := rirKey{b.Registry, b.Prefix}
		s := l.keys[k]
		if i == 0 {
			if err := l.t.Manage(b.Prefix, b.Registry, b.Status); err != nil {
				return err
			}
			if l.rec != nil {
				l.rec.manage = append(l.rec.manage, b)
			}
		} else if s.status != b.Status {
			if err := l.t.SetStatus(b.Prefix, l.days[i], b.Status); err != nil {
				return err
			}
			if l.rec != nil {
				l.rec.changes = append(l.rec.changes, rirChange{l.days[i], b})
			}
		} else {
			continue
		}
		s.status = b.Status
		l.keys[k] = s
	}
	l.prev, l.cur = l.cur, l.prev
	return nil
}

// count adds by to the block count of each block's key.
func (l *rirLoad) count(blocks []rirstats.Block, by int) {
	for _, b := range blocks {
		k := rirKey{b.Registry, b.Prefix}
		s := l.keys[k]
		s.n += by
		switch {
		case by > 0 && s.n == 2:
			l.dups++
		case by < 0 && s.n == 1:
			l.dups--
		}
		l.keys[k] = s
	}
}
