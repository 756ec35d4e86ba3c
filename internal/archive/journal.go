package archive

// The text journal (DESIGN.md, "The text journal"). A lenient load that
// parses DROP, RPKI and rirstats cleanly records the store mutations it
// made — drop.Archive.AddSnapshot, rpki.Archive.Revoke and Add,
// rirstats.Timeline.Manage and SetStatus, in order — and each file's
// record count, keyed on a digest of exactly the bytes it read; a later
// load whose files hash to that digest replays them instead of parsing.
//
// Layout: "DSTJ", version (uint32 LE), text digest, body, CRC-32C of
// all before it (uint32 LE). The body, in varints and 5-byte prefixes:
// the record counts; the DROP snapshots, each entry a reference into
// the one before or given in full; the ROA events; the Manage calls;
// the SetStatus calls. A trust anchor, registry or status is an index
// into its package's constants (0: the string follows), so a replay
// hands the stores the values a parse interns.

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"path/filepath"
	"slices"

	"dropscope/internal/bgp"
	"dropscope/internal/drop"
	"dropscope/internal/filesum"
	"dropscope/internal/ingest"
	"dropscope/internal/netx"
	"dropscope/internal/rirstats"
	"dropscope/internal/rpki"
	"dropscope/internal/timex"
)

const (
	journalMagic = "DSTJ"
	// journalVersion changes with anything that makes the same text
	// record another journal; TestJournalGolden pins it.
	journalVersion = 1
	journalHeader  = len(journalMagic) + 4 + sha256.Size // magic, version, digest
)

var (
	castagnoli  = crc32.MakeTable(crc32.Castagnoli)
	errJournal  = errors.New("archive: malformed text journal")
	rirStatuses = []rirstats.Status{rirstats.Available, rirstats.Allocated, rirstats.Assigned, rirstats.Reserved}
)

// JournalStore keeps the text journal between loads; ribsnap.Store is
// one.
type JournalStore interface {
	// ReadTextJournal returns the journal last written, nil for none.
	ReadTextJournal() []byte
	// WriteTextJournal replaces the journal; an empty one is none.
	WriteTextJournal([]byte) error
}

// fileSum is one text file a load read: its archive-relative path,
// which is also its ingest source's name, and its size and SHA-256.
type fileSum struct {
	path string
	filesum.Sum
}

// textDigest keys a journal: SHA-256 over each file's path, size and
// content hash, in load order.
func textDigest(files []fileSum) [sha256.Size]byte {
	h := sha256.New()
	var b []byte
	for _, f := range files {
		b = append(append(b[:0], f.path...), 0)
		b = binary.BigEndian.AppendUint64(b, f.Size)
		h.Write(append(b, f.SHA[:]...))
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// textFiles lists the files the DROP, RPKI and rirstats loads read, in
// the order they read them, relative to dir.
func textFiles(dir string) ([]string, error) {
	var paths []string
	for _, s := range [...]struct{ sub, ext string }{{"drop", ".txt"}, {"rpki", ".csv"}, {"rirstats", ""}} {
		days, err := snapshotDays(filepath.Join(dir, s.sub), s.ext)
		if err != nil {
			return nil, err
		}
		for _, day := range days {
			if s.ext != "" {
				paths = append(paths, s.sub+"/"+day.Compact()+s.ext)
				continue
			}
			dayDir := s.sub + "/" + day.Compact() + "/"
			for _, name := range rirFiles {
				paths = append(paths, dayDir+name)
			}
		}
	}
	return paths, nil
}

// rirFiles names each registry's file in a rirstats day directory, in
// rirstats.AllRIRs order.
var rirFiles = func() (names []string) {
	for _, rir := range rirstats.AllRIRs {
		names = append(names, "delegated-"+string(rir)+"-extended")
	}
	return names
}()

// record is what a load that parses keeps for the journal: the files
// each journaled source read, in its load order, and the rirstats
// mutations. DROP's and RPKI's are their stores' own snapshots and
// events, read back when the journal is encoded.
type record struct {
	drop, rpki, rir []fileSum
	manage          []rirstats.Block
	changes         []rirChange
}

// rirChange is one Timeline.SetStatus call.
type rirChange struct {
	day timex.Day
	rirstats.Block
}

// save writes the journal of a load whose DROP, RPKI and rirstats files
// all parsed without a skipped line; a damaged load writes nothing. The
// write is best-effort: without a journal the next load parses.
func (r *record) save(js JournalStore, b *Bundle, h *ingest.Health) {
	files := slices.Concat(r.drop, r.rpki, r.rir)
	e := enc{b: []byte(journalMagic)}
	e.b = binary.LittleEndian.AppendUint32(e.b, journalVersion)
	digest := textDigest(files)
	e.b = append(e.b, digest[:]...)
	e.uvarint(uint64(len(files)))
	for _, f := range files {
		src := h.Source(f.path)
		if !src.Clean() {
			return
		}
		e.uvarint(src.Records)
	}
	e.drop(b.DROP)
	e.rpki(b.RPKI.Events())
	e.rir(r.manage, r.changes)
	e.b = binary.LittleEndian.AppendUint32(e.b, crc32.Checksum(e.b, castagnoli))
	_ = js.WriteTextJournal(e.b)
}

// replay loads DROP, RPKI and rirstats from the store's journal: it
// takes the text files' sums from files (on workers goroutines,
// alongside; only a file whose manifest row does not hold is read)
// while it replays the journal into fresh stores, and keeps them only
// when the journal's digest is the files'. The health of each file is
// then its recorded count, so a report reads as the parse's would. It
// reports false, touching neither b nor h, when the journal does not
// serve — at once, unhashed, if it counts another number of files (a
// day came or went) — and empties it, so changed or still-damaged text
// pays once.
func replay(files *filesum.Manifest, js JournalStore, b *Bundle, h *ingest.Health, workers int) bool {
	data := js.ReadTextJournal()
	if len(data) == 0 {
		return false
	}
	digest, body, ok := openJournal(data)
	paths, err := textFiles(files.Path("."))
	if !ok || err != nil || (&dec{b: body}).count() != len(paths) {
		_ = js.WriteTextJournal(nil)
		return false
	}
	var (
		sums   []filesum.Sum
		herr   error
		hashed = make(chan struct{})
	)
	hash := func() { sums, herr = files.SumAll(paths, workers); close(hashed) }
	if workers == 1 {
		hash()
	} else {
		go hash()
	}
	stores := &Bundle{DROP: drop.NewArchive(), RPKI: &rpki.Archive{}, RIR: &rirstats.Timeline{}}
	counts, err := decodeJournal(body, stores)
	<-hashed
	read := make([]fileSum, len(sums))
	for i, sum := range sums {
		read[i] = fileSum{paths[i], sum}
	}
	if err != nil || herr != nil || len(counts) != len(read) || textDigest(read) != digest {
		_ = js.WriteTextJournal(nil)
		return false
	}
	b.DROP, b.RPKI, b.RIR = stores.DROP, stores.RPKI, stores.RIR
	if h != nil {
		for i, path := range paths {
			h.Source(path).Accept(counts[i])
		}
	}
	return true
}

// openJournal checks a journal's framing and returns its digest and
// body; ok is false for anything but an intact journal of this version.
func openJournal(data []byte) (digest [sha256.Size]byte, body []byte, ok bool) {
	if len(data) < journalHeader+4 || string(data[:len(journalMagic)]) != journalMagic ||
		binary.LittleEndian.Uint32(data[len(journalMagic):]) != journalVersion {
		return digest, nil, false
	}
	end := len(data) - 4
	if crc32.Checksum(data[:end], castagnoli) != binary.LittleEndian.Uint32(data[end:]) {
		return digest, nil, false
	}
	copy(digest[:], data[journalHeader-sha256.Size:])
	return digest, data[journalHeader:end], true
}

// decodeJournal replays a journal body into b's empty DROP, RPKI and
// rirstats stores through their own mutators, and returns the per-file
// record counts. Any body either fails or replays: a count never asks
// for more than the body holds, and every mutation goes through the
// stores' own checks.
func decodeJournal(body []byte, b *Bundle) ([]uint64, error) {
	d := &dec{b: body}
	counts := make([]uint64, d.count())
	for i := range counts {
		counts[i] = d.uvarint()
	}
	var prev, cur []drop.Entry
	for n := d.count(); n > 0 && d.err == nil; n-- {
		day := timex.Day(d.varint())
		cur = cur[:0]
		for m := d.count(); m > 0 && d.err == nil; m-- {
			switch j := d.uvarint(); {
			case j == 0:
				cur = append(cur, drop.Entry{Prefix: d.prefix(), SBLRef: d.str()})
			case j <= uint64(len(prev)):
				cur = append(cur, prev[j-1])
			default:
				d.fail()
			}
		}
		if err := b.DROP.AddSnapshot(day, cur); err != nil {
			return nil, err
		}
		prev, cur = cur, prev
	}
	for n := d.count(); n > 0 && d.err == nil; n-- {
		day, k := timex.Day(d.varint()), d.uvarint()
		roa := rpki.ROA{Prefix: d.prefix(), MaxLength: int(k >> 1), ASN: bgp.ASN(d.uvarint()), TA: sym(d, rpki.WithAS0TALs)}
		mutate := b.RPKI.Revoke
		if k&1 == 1 {
			mutate = b.RPKI.Add
		}
		if err := mutate(day, roa); err != nil {
			return nil, err
		}
	}
	for n := d.count(); n > 0 && d.err == nil; n-- {
		if err := b.RIR.Manage(d.prefix(), sym(d, rirstats.AllRIRs), sym(d, rirStatuses)); err != nil {
			return nil, err
		}
	}
	for n := d.count(); n > 0 && d.err == nil; n-- {
		day := timex.Day(d.varint())
		if err := b.RIR.SetStatus(d.prefix(), day, sym(d, rirStatuses)); err != nil {
			return nil, err
		}
	}
	if len(d.b) != 0 {
		d.fail()
	}
	return counts, d.err
}

// enc appends the journal's encoding.
type enc struct{ b []byte }

func (e *enc) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }

func (e *enc) varint(v int64) { e.b = binary.AppendVarint(e.b, v) }

func (e *enc) prefix(p netx.Prefix) {
	e.b = append(binary.BigEndian.AppendUint32(e.b, uint32(p.Addr())), byte(p.Bits()))
}

func (e *enc) str(s string) {
	e.uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

func putSym[S ~string](e *enc, known []S, s S) {
	if i := slices.Index(known, s); i >= 0 {
		e.uvarint(uint64(i + 1))
		return
	}
	e.uvarint(0)
	e.str(string(s))
}

// drop encodes each snapshot entry as its index+1 in the snapshot
// before (looked for just past the last one found), or 0 and the entry.
func (e *enc) drop(a *drop.Archive) {
	e.uvarint(uint64(len(a.Days())))
	var prev []drop.Entry
	for _, day := range a.Days() {
		cur, _ := a.Snapshot(day)
		e.varint(int64(day))
		e.uvarint(uint64(len(cur)))
		k := 0
		for _, en := range cur {
			i := slices.Index(prev[k:min(k+16, len(prev))], en)
			if i < 0 {
				e.uvarint(0)
				e.prefix(en.Prefix)
				e.str(en.SBLRef)
				continue
			}
			k += i + 1
			e.uvarint(uint64(k))
		}
		prev = cur
	}
}

func (e *enc) rpki(events []rpki.Event) {
	e.uvarint(uint64(len(events)))
	for _, ev := range events {
		e.varint(int64(ev.Day))
		k := uint64(ev.ROA.MaxLength) << 1
		if ev.Created {
			k |= 1
		}
		e.uvarint(k)
		e.prefix(ev.ROA.Prefix)
		e.uvarint(uint64(ev.ROA.ASN))
		putSym(e, rpki.WithAS0TALs, ev.ROA.TA)
	}
}

func (e *enc) rir(manage []rirstats.Block, changes []rirChange) {
	e.uvarint(uint64(len(manage)))
	for _, b := range manage {
		e.prefix(b.Prefix)
		putSym(e, rirstats.AllRIRs, b.Registry)
		putSym(e, rirStatuses, b.Status)
	}
	e.uvarint(uint64(len(changes)))
	for _, c := range changes {
		e.varint(int64(c.day))
		e.prefix(c.Prefix)
		putSym(e, rirStatuses, c.Status)
	}
}

// dec reads the journal's encoding. The first malformed field sets err
// and empties b, so every read after it is a cheap zero.
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = errJournal
	}
	d.b = nil
}

func (d *dec) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// count reads the length of a list whose items each take at least one
// byte, so a corrupt one cannot ask for more than the body holds.
func (d *dec) count() int {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.fail()
		return 0
	}
	return int(n)
}

// varint undoes binary.AppendVarint's zigzag.
func (d *dec) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (d *dec) prefix() netx.Prefix {
	if len(d.b) < 5 || d.b[4] > 32 {
		d.fail()
		return netx.Prefix{}
	}
	p := netx.PrefixFrom(netx.Addr(binary.BigEndian.Uint32(d.b)), int(d.b[4]))
	d.b = d.b[5:]
	return p
}

func (d *dec) str() string {
	n := d.count()
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func sym[S ~string](d *dec, known []S) S {
	i := d.uvarint()
	switch {
	case i == 0:
		return S(d.str())
	case i > uint64(len(known)):
		d.fail()
		return ""
	}
	return known[i-1]
}
