package archive

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"dropscope/internal/bgp"
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

// memJournal is a JournalStore in memory that counts its writes.
type memJournal struct {
	data   []byte
	writes int
}

func (m *memJournal) ReadTextJournal() []byte { return m.data }

func (m *memJournal) WriteTextJournal(b []byte) error {
	m.data = slices.Clone(b)
	m.writes++
	return nil
}

// load loads dir through LoadWithOptions, lenient when h is non-nil.
func load(t *testing.T, dir string, h *ingest.Health, js JournalStore, workers int) *Bundle {
	t.Helper()
	opts := LoadOptions{Health: h, Workers: workers}
	if js != nil {
		opts.Journal = js
	}
	b, err := LoadWithOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// recorded returns the journal a clean lenient load of dir writes.
func recorded(t *testing.T, dir string) *memJournal {
	t.Helper()
	js := &memJournal{}
	load(t, dir, ingest.NewHealth(), js, 2)
	if js.writes != 1 {
		t.Fatalf("a clean lenient load wrote %d journals, want 1", js.writes)
	}
	return js
}

// sameStores compares the DROP, RPKI and rirstats stores through their
// public queries.
func sameStores(t *testing.T, got, want *Bundle) {
	t.Helper()
	days := want.DROP.Days()
	if !reflect.DeepEqual(got.DROP.Days(), days) {
		t.Fatalf("DROP days differ: %d, want %d", len(got.DROP.Days()), len(days))
	}
	for _, day := range days {
		g, _ := got.DROP.Snapshot(day)
		w, _ := want.DROP.Snapshot(day)
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("DROP snapshot %v differs", day)
		}
	}
	if !reflect.DeepEqual(got.DROP.Listings(), want.DROP.Listings()) {
		t.Fatal("DROP listings differ")
	}
	events := want.RPKI.Events()
	if !reflect.DeepEqual(got.RPKI.Events(), events) {
		t.Fatal("ROA journal differs")
	}
	changes := want.RPKI.ChangeDays()
	for i, ev := range events {
		if i%7 != 0 {
			continue
		}
		for _, d := range []timex.Day{ev.Day - 1, ev.Day, changes[len(changes)-1]} {
			for _, origin := range []bgp.ASN{ev.ROA.ASN, ev.ROA.ASN + 1} {
				for _, tals := range [][]rpki.TrustAnchor{rpki.DefaultTALs, rpki.WithAS0TALs} {
					if g, w := got.RPKI.ValidateAt(ev.ROA.Prefix, origin, d, tals), want.RPKI.ValidateAt(ev.ROA.Prefix, origin, d, tals); g != w {
						t.Fatalf("ValidateAt(%v, %v, %v) = %v, want %v", ev.ROA.Prefix, origin, d, g, w)
					}
				}
			}
		}
	}
	compareTimelines(t, got.RIR, want.RIR)
}

// TestJournalReplayMatchesParse: over three worlds, a replay of the
// journal a clean lenient load recorded gives the stores the parse gave,
// on one goroutine and on several; a load that replays it reports the
// parse's health and does not record it again, and a strict load
// replays it too.
func TestJournalReplayMatchesParse(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		dir := writeWorld(t, seed)
		wantH := ingest.NewHealth()
		want := load(t, dir, wantH, nil, 2)
		js := recorded(t, dir)
		for _, workers := range []int{1, 3} {
			got := &Bundle{}
			if !replay(filesum.Open(dir, nil), js, got, nil, workers) {
				t.Fatalf("seed %d workers %d: the journal did not replay", seed, workers)
			}
			sameStores(t, got, want)
		}
		for _, h := range []*ingest.Health{ingest.NewHealth(), nil} {
			got := load(t, dir, h, js, 2)
			if !reflect.DeepEqual(got.RPKI.Events(), want.RPKI.Events()) || !reflect.DeepEqual(got.DROP.Days(), want.DROP.Days()) {
				t.Fatalf("seed %d lenient=%v: a replaying load's stores differ from the parse's", seed, h != nil)
			}
			if h != nil && !reflect.DeepEqual(h.Report(), wantH.Report()) {
				t.Fatalf("seed %d: health after a replaying load differs from the parse's", seed)
			}
		}
		if js.writes != 1 {
			t.Errorf("seed %d: replaying loads wrote the journal again (%d writes)", seed, js.writes)
		}
	}
}

// TestJournalReplaysInternedValues: replayed registries and statuses
// are the rirstats constants a parse interns, not copies.
func TestJournalReplaysInternedValues(t *testing.T) {
	dir := writeSmallWorld(t)
	got := &Bundle{}
	if !replay(filesum.Open(dir, nil), recorded(t, dir), got, nil, 1) {
		t.Fatal("the journal did not replay")
	}
	known := func(s string, consts []string) bool {
		for _, c := range consts {
			if unsafe.StringData(s) == unsafe.StringData(c) {
				return true
			}
		}
		return false
	}
	var rirs, statuses []string
	for _, r := range rirstats.AllRIRs {
		rirs = append(rirs, string(r))
	}
	for _, s := range rirStatuses {
		statuses = append(statuses, string(s))
	}
	for _, r := range got.RIR.RecordsAt(got.RIR.ChangeDays()[0]) {
		if !known(string(r.Registry), rirs) || !known(string(r.Status), statuses) {
			t.Fatalf("record %+v does not hold the interned registry and status", r)
		}
	}
}

// TestJournalDamagedLoadWritesNone: a lenient load that skipped a line
// of DROP, RPKI or rirstats text writes no journal, and empties the one
// the clean text left, so the next load of the damaged text neither
// hashes nor writes; a strict load writes none even over clean text.
func TestJournalDamagedLoadWritesNone(t *testing.T) {
	for _, c := range damageCases {
		if !c.strictFails || c.name == "garbage IRR journal" {
			continue
		}
		dir := writeSmallWorld(t)
		js := recorded(t, dir)
		c.damage(t, dir)
		if _, err := LoadWithOptions(dir, LoadOptions{Health: ingest.NewHealth(), Journal: js}); err != nil {
			continue // a lenient load that fails writes nothing either
		}
		if len(js.data) != 0 {
			t.Errorf("%s: a damaged lenient load left a journal", c.name)
		}
		writes := js.writes
		load(t, dir, ingest.NewHealth(), js, 2)
		if js.writes != writes {
			t.Errorf("%s: a second load of the damaged text wrote the journal again", c.name)
		}
	}
	js := &memJournal{}
	load(t, writeSmallWorld(t), nil, js, 2)
	if js.writes != 0 {
		t.Error("a strict load wrote a journal")
	}
}

// Digests of the journal a clean lenient load of writeWorld(t, 1)
// records: the text it is keyed on, and the whole file.
const (
	goldenTextDigest = "421db134ec88561bdef69b9146cda30d16325b6e0897cb3637458a7cc243f28d"
	goldenJournal    = "58e4fb35fef5e0432bb8cdea2b70113f1c5d3a19fd4c7525e56efd282e624320"
)

// TestJournalGolden pins the journal of a fixed world, so a change to
// what the DROP, RPKI or rirstats loads parse or diff cannot go
// unnoticed: a journal recorded by an older build would replay it. When
// the text digest holds and the journal does not, bump journalVersion
// and repin; when the text digest moved, the world itself changed.
func TestJournalGolden(t *testing.T) {
	dir := writeWorld(t, 1)
	for _, workers := range []int{1, 3} {
		js := &memJournal{}
		load(t, dir, ingest.NewHealth(), js, workers)
		if len(js.data) < journalHeader {
			t.Fatalf("workers %d: a clean lenient load recorded no journal", workers)
		}
		text := fmt.Sprintf("%x", js.data[journalHeader-sha256.Size:journalHeader])
		whole := fmt.Sprintf("%x", sha256.Sum256(js.data))
		switch {
		case text != goldenTextDigest:
			t.Fatalf("workers %d: text digest %s, want %s: the generated world changed; repin both digests", workers, text, goldenTextDigest)
		case whole != goldenJournal:
			t.Fatalf("workers %d: journal digest %s, want %s: the same text records another journal; bump journalVersion and repin", workers, whole, goldenJournal)
		}
	}
}

// TestJournalStaleIsMiss: a journal recorded before the text changed —
// in content at the same size, by a day added or removed, or by a
// renamed file — does not replay, and the load gives the stores and
// health a load without a journal gives; it then records the new text.
func TestJournalStaleIsMiss(t *testing.T) {
	changes := map[string]func(t *testing.T, dir string){
		"same-size rirstats edit": func(t *testing.T, dir string) {
			path := filepath.Join(dir, "rirstats", rirDay(t, dir, -1), "delegated-arin-extended")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			i := bytes.LastIndex(raw, []byte("|allocated|"))
			if i < 0 {
				t.Fatal("no allocated block to edit")
			}
			copy(raw[i:], "|available|")
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"added DROP day": func(t *testing.T, dir string) {
			days, _ := snapshotDays(filepath.Join(dir, "drop"), ".txt")
			last := days[len(days)-1]
			entries := load(t, dir, nil, nil, 1).DROP
			snap, _ := entries.Snapshot(last)
			f, err := os.Create(filepath.Join(dir, "drop", (last+1).Compact()+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if err := drop.Write(f, last+1, snap[1:]); err != nil {
				t.Fatal(err)
			}
		},
		"removed RPKI day": func(t *testing.T, dir string) {
			days, _ := snapshotDays(filepath.Join(dir, "rpki"), ".csv")
			if err := os.Remove(filepath.Join(dir, "rpki", days[len(days)/2].Compact()+".csv")); err != nil {
				t.Fatal(err)
			}
		},
		"renamed DROP file": func(t *testing.T, dir string) {
			days, _ := snapshotDays(filepath.Join(dir, "drop"), ".txt")
			last := days[len(days)-1]
			if err := os.Rename(filepath.Join(dir, "drop", last.Compact()+".txt"), filepath.Join(dir, "drop", (last+3).Compact()+".txt")); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, change := range changes {
		t.Run(name, func(t *testing.T) {
			dir := writeSmallWorld(t)
			js := recorded(t, dir)
			old := js.data
			change(t, dir)
			if replay(filesum.Open(dir, nil), js, &Bundle{}, nil, 2) {
				t.Fatal("a stale journal replayed")
			}
			wantH, h := ingest.NewHealth(), ingest.NewHealth()
			want := load(t, dir, wantH, nil, 2)
			sameStores(t, load(t, dir, h, js, 2), want)
			if !reflect.DeepEqual(h.Report(), wantH.Report()) {
				t.Fatal("health after a stale journal differs from a load without one")
			}
			if bytes.Equal(js.data, old) || !replay(filesum.Open(dir, nil), js, &Bundle{}, nil, 2) {
				t.Fatal("the load over the changed text did not record it")
			}
		})
	}
}

// TestJournalCorruptIsMiss: a journal with a flipped bit, cut short, or
// with another magic or version does not replay, and the load parses.
func TestJournalCorruptIsMiss(t *testing.T) {
	dir := writeSmallWorld(t)
	good := recorded(t, dir).data
	// resealed rewrites a header field and recomputes the CRC, so only
	// the field's own check can refuse it.
	resealed := func(at int, b []byte) []byte {
		out := slices.Clone(good)
		copy(out[at:], b)
		end := len(out) - 4
		binary.LittleEndian.PutUint32(out[end:], crc32.Checksum(out[:end], castagnoli))
		return out
	}
	flipped := slices.Clone(good)
	flipped[len(flipped)/2] ^= 0x10
	version := binary.LittleEndian.AppendUint32(nil, journalVersion+1)
	cases := map[string][]byte{
		"bit flip":      flipped,
		"truncated":     good[:len(good)-100],
		"header only":   good[:journalHeader],
		"wrong magic":   resealed(0, []byte("DSTK")),
		"wrong version": resealed(len(journalMagic), version),
	}
	wantH := ingest.NewHealth()
	want := load(t, dir, wantH, nil, 2)
	for name, data := range cases {
		js := &memJournal{data: data}
		if replay(filesum.Open(dir, nil), js, &Bundle{}, nil, 2) {
			t.Errorf("%s: the journal replayed", name)
			continue
		}
		h := ingest.NewHealth()
		sameStores(t, load(t, dir, h, js, 2), want)
		if !reflect.DeepEqual(h.Report(), wantH.Report()) {
			t.Errorf("%s: health differs from a load without a journal", name)
		}
		if !bytes.Equal(js.data, good) {
			t.Errorf("%s: the parse did not rewrite the journal", name)
		}
	}
}

// tinyJournal is the journal of a hand-made archive small enough to
// seed the fuzzer: a few DROP days, ROAs created and revoked and blocks
// changing status, with a trust anchor outside the constants.
func tinyJournal(t testing.TB) []byte {
	t.Helper()
	day := timex.MustParseDay("2020-01-01")
	p := func(s string) netx.Prefix { return netx.MustParsePrefix(s) }
	b := &Bundle{MRT: nil, DROP: drop.NewArchive(), SBL: sbl.NewDB(), IRR: &irr.DB{}, RPKI: &rpki.Archive{}, RIR: &rirstats.Timeline{}}
	e1, e2, e3 := drop.Entry{Prefix: p("10.0.0.0/8"), SBLRef: "SBL1"}, drop.Entry{Prefix: p("192.0.2.0/24")}, drop.Entry{Prefix: p("198.51.100.0/24"), SBLRef: "SBL3"}
	for i, entries := range [][]drop.Entry{{e1, e2}, {e1, e3, e2}, {e3}} {
		if err := b.DROP.AddSnapshot(day+timex.Day(i), entries); err != nil {
			t.Fatal(err)
		}
	}
	roa := rpki.ROA{Prefix: p("203.0.113.0/24"), MaxLength: 24, ASN: 64500, TA: rpki.TARIPE}
	other := rpki.ROA{Prefix: p("203.0.112.0/24"), MaxLength: 24, ASN: 0, TA: "somewhere"}
	for _, err := range []error{b.RPKI.Add(day, roa), b.RPKI.Add(day, other), b.RPKI.Revoke(day+1, roa)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, err := range []error{
		b.RIR.Manage(p("41.0.0.0/8"), rirstats.Afrinic, rirstats.Available),
		b.RIR.Manage(p("1.0.0.0/8"), rirstats.APNIC, rirstats.Available),
		b.RIR.SetStatus(p("41.0.0.0/8"), day+1, rirstats.Allocated),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	if err := Write(dir, b); err != nil {
		t.Fatal(err)
	}
	js := &memJournal{}
	if _, err := LoadWithOptions(dir, LoadOptions{Health: ingest.NewHealth(), Journal: js, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if js.writes != 1 || !replay(filesum.Open(dir, nil), js, &Bundle{}, nil, 1) {
		t.Fatal("the tiny archive did not record a journal that replays")
	}
	return js.data
}

// FuzzTextJournal: no bytes panic the journal's reader. As a file they
// are refused or framed; as a body they either fail or replay through
// the stores' own checks.
func FuzzTextJournal(f *testing.F) {
	data := tinyJournal(f)
	f.Add(data)
	f.Add(data[journalHeader : len(data)-4])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fresh := func() *Bundle {
			return &Bundle{DROP: drop.NewArchive(), RPKI: &rpki.Archive{}, RIR: &rirstats.Timeline{}}
		}
		if _, body, ok := openJournal(data); ok {
			decodeJournal(body, fresh())
		}
		counts, err := decodeJournal(data, fresh())
		if err == nil && len(counts) > len(data) {
			t.Fatalf("%d counts from %d bytes", len(counts), len(data))
		}
	})
}
