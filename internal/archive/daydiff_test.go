package archive

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"dropscope/internal/drop"
	"dropscope/internal/filesum"
	"dropscope/internal/ingest"
	"dropscope/internal/rirstats"
	"dropscope/internal/rpki"
	"dropscope/internal/timex"
)

// dayWorld writes a small archive of days daily text snapshots whose
// files change from one day to the next the ways the day diff must
// survive: lines reordered, a line duplicated exactly, a registry's
// block on two lines with different statuses (the full-day fallback),
// a malformed line kept for 30 days, version and summary lines that
// change, ROA rows restamped with the day's dates, one ROA on two rows,
// gap days, a file cut to its header, a last line without a newline,
// and lines moved into or out of a file's first line, which the formats
// read by position. With clean, no line is malformed, so a strict load
// runs through.
func dayWorld(t *testing.T, seed int64, days int, clean bool) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	for _, sub := range []string{"drop", "rpki", "rirstats", "sbl", "irr"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []string{"sbl/records.txt", "irr/journal.rpsl"} {
		if err := os.WriteFile(filepath.Join(dir, f), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write := func(rel, content string) {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	statuses := []string{"allocated", "available", "assigned", "reserved"}

	// Each registry's records, one /24 (or a /23: two blocks) each, every
	// prefix held by one registry. The afrinic file's first record names
	// registry "2", which reads as a version line whenever it is a
	// file's first line.
	rir := make([][]string, len(rirstats.AllRIRs))
	record := func(reg string, i, j int, status string) string {
		count := 256
		if j%5 == 0 {
			count = 512
		}
		return fmt.Sprintf("%s|ZZ|ipv4|%d.%d.%d.0|%d|20200101|%s|x", reg, 10+i, j/64, 4*(j%64), count, status)
	}
	for i, reg := range rirstats.AllRIRs {
		for j := 0; j < 8+rng.Intn(8); j++ {
			reg := string(reg)
			if i == 0 && j == 0 {
				reg = "2"
			}
			rir[i] = append(rir[i], record(reg, i, j, statuses[rng.Intn(len(statuses))]))
		}
	}
	// roas holds each ROA row's first four fields; dates are the day's.
	roa := func(j int) string {
		return fmt.Sprintf("rsync://rpki.example.net/ripe/%d.roa,AS%d,10.%d.0.0/16,%d", j, 64500+j%7, j%40, 16+j%3)
	}
	var roas []string
	for j := 0; j < 10; j++ {
		roas = append(roas, roa(j))
	}
	dropLine := func(j int) string { return fmt.Sprintf("192.0.%d.0/24 ; SBL%d", j%250, j) }
	var drops []string
	for j := 0; j < 10; j++ {
		drops = append(drops, dropLine(j))
	}
	// bad holds each malformed line and the day it goes away.
	type badLine struct {
		file, line string
		until      int
	}
	var bad []badLine
	// dup is the block on two lines, if any: its file and key.
	var dup struct {
		file int
		key  string
	}
	nextROA, nextDrop := 10, 10

	insert := func(lines []string, s string) []string {
		return slices.Insert(lines, rng.Intn(len(lines)+1), s)
	}
	swap := func(lines []string) {
		if len(lines) > 1 {
			i := rng.Intn(len(lines) - 1)
			lines[i], lines[i+1] = lines[i+1], lines[i]
		}
	}
	// render joins a file's lines, then on some days bends it one way.
	render := func(d int, head []string, lines []string, badFile string) string {
		body := slices.Clone(lines)
		for _, b := range bad {
			if b.file == badFile && d < b.until {
				body = append(body[:min(len(body), 1)], append([]string{b.line}, body[min(len(body), 1):]...)...)
			}
		}
		all := append(slices.Clone(head), body...)
		if d > 0 {
			switch rng.Intn(30) {
			case 0: // cut to its header
				all = all[:min(len(all), len(head))]
			case 1: // first lines gone: a body line becomes line 1
				all = all[min(len(all), len(head)):]
			case 2: // a line before the header, which then reads as a row
				if !clean || badFile != "rpki" {
					all = slices.Insert(all, 0, body[0:min(len(body), 1)]...)
				}
			case 3: // a blank first line
				all = slices.Insert(all, 0, "")
			}
		}
		s := strings.Join(all, "\n") + "\n"
		if d > 0 && rng.Intn(6) == 0 {
			s = strings.TrimSuffix(s, "\n")
		}
		return s
	}

	day0 := timex.MustParseDay("2020-01-01")
	for d := 0; d < days; d++ {
		day := day0 + timex.Day(d)
		// Change the state: statuses flip, lines move, duplicates come and
		// go, ROAs and DROP entries are added and removed.
		if d > 0 {
			for n := rng.Intn(3); n >= 0; n-- {
				lines := rir[rng.Intn(len(rir))]
				j := rng.Intn(len(lines))
				if rng.Intn(3) == 0 {
					swap(lines)
					continue
				}
				f := strings.Split(lines[j], "|")
				f[6] = statuses[rng.Intn(len(statuses))]
				lines[j] = strings.Join(f, "|")
			}
			// A block goes on two lines now and then, the second a copy of
			// the first or under another status, for a day or a few; then
			// the first or the second line goes away.
			key := func(line string) string {
				f := strings.Split(line, "|")
				return f[0] + "|" + f[3]
			}
			switch {
			case dup.key != "" && rng.Intn(3) != 0:
				lines := rir[dup.file]
				var on []int
				for k, line := range lines {
					if key(line) == dup.key {
						on = append(on, k)
					}
				}
				k := on[rng.Intn(len(on))]
				rir[dup.file] = slices.Delete(lines, k, k+1)
				dup.key = ""
			case dup.key == "" && rng.Intn(8) == 0:
				i := rng.Intn(len(rir))
				line := rir[i][rng.Intn(len(rir[i]))]
				if rng.Intn(2) == 0 {
					f := strings.Split(line, "|")
					f[6] = statuses[(slices.Index(statuses, f[6])+1)%len(statuses)]
					line = strings.Join(f, "|")
				}
				rir[i] = insert(rir[i], line)
				dup.file, dup.key = i, key(line)
			}
			for n := rng.Intn(3); n >= 0; n-- {
				switch rng.Intn(6) {
				case 0:
					roas = insert(roas, roa(nextROA))
					nextROA++
				case 1:
					if len(roas) > 1 {
						j := rng.Intn(len(roas))
						roas = slices.Delete(roas, j, j+1)
					}
				case 2:
					swap(roas)
				case 3: // one ROA on two rows
					roas = insert(roas, roas[rng.Intn(len(roas))])
				case 4: // another origin
					j := rng.Intn(len(roas))
					roas[j] = strings.Replace(roas[j], ",AS", ",AS1", 1)
				case 5: // a row's dates are the day's anyway; this moves one
					j := rng.Intn(len(roas))
					r := roas[j]
					roas = insert(slices.Delete(roas, j, j+1), r)
				}
			}
			for n := rng.Intn(3); n >= 0; n-- {
				switch rng.Intn(4) {
				case 0:
					drops = insert(drops, dropLine(nextDrop))
					nextDrop++
				case 1:
					if len(drops) > 1 {
						j := rng.Intn(len(drops))
						drops = slices.Delete(drops, j, j+1)
					}
				case 2:
					swap(drops)
				case 3:
					drops = insert(drops, drops[rng.Intn(len(drops))])
				}
			}
			if !clean && rng.Intn(8) == 0 {
				file := []string{"drop", "rpki", "afrinic", "arin", "ripencc"}[rng.Intn(5)]
				line := map[string]string{
					"drop":    "not-a-prefix ; SBL1",
					"rpki":    "rsync://rpki.example.net/ripe/x.roa,ASx,10.0.0.0/16,16,2020-01-01,2021-01-01",
					"afrinic": "afrinic|ZZ|ipv4|10.0.0.0|many|20200101|allocated|x",
					"arin":    "arin|ZZ|ipv4|10.0.0.0|256",
					"ripencc": "ripencc|ZZ|ipv4|300.0.0.0|256|20200101|allocated|x",
				}[file]
				bad = append(bad, badLine{file, line, d + 30})
			}
		}
		// Every source skips a day now and then: its files diff against
		// the last day it has.
		gap := func() bool { return d > 0 && rng.Intn(10) == 0 }
		if !gap() {
			head := []string{"; Spamhaus DROP List " + day.String()}
			write("drop/"+day.Compact()+".txt", render(d, head, drops, "drop"))
		}
		if !gap() {
			rows := make([]string, len(roas))
			for j, r := range roas {
				rows[j] = r + "," + day.String() + "," + (day + 365).String()
			}
			head := []string{"URI,ASN,IP Prefix,Max Length,Not Before,Not After"}
			write("rpki/"+day.Compact()+".csv", render(d, head, rows, "rpki"))
		}
		if d == 0 || !gap() {
			for i, reg := range rirstats.AllRIRs {
				summary := len(rir[i])
				if d > 0 && rng.Intn(4) == 0 {
					summary++ // a summary line that disagrees
				}
				head := []string{
					fmt.Sprintf("2|%s|%s|%d|%d|19830101|%s|+0000", reg, day.Compact(), len(rir[i]), len(rir[i]), day.Compact()),
					fmt.Sprintf("%s|*|ipv4|*|%d|summary", reg, summary),
				}
				write("rirstats/"+day.Compact()+"/delegated-"+string(reg)+"-extended", render(d, head, rir[i], string(reg)))
			}
		}
	}
	return dir
}

// TestDayDiffMatchesReference holds the diff parse to the reference's
// parse of every line, over random day sequences (dayWorld), leniently
// and strictly, on one goroutine and on several: the same timeline, ROA
// journal, DROP snapshots and listings and health report, or the same
// error text.
func TestDayDiffMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		clean := seed%3 == 0
		dir := dayWorld(t, seed, 45, clean)
		for _, lenient := range []bool{false, true} {
			health := func() *ingest.Health {
				if lenient {
					return ingest.NewHealth()
				}
				return nil
			}
			wantH := health()
			want, wantErr := referenceLoad(dir, wantH)
			if clean && wantErr != nil {
				t.Fatalf("seed %d: the reference fails a clean world: %v", seed, wantErr)
			}
			for _, workers := range []int{1, 3} {
				h := health()
				got, err := LoadWithOptions(dir, LoadOptions{Health: h, Workers: workers})
				if errText(err) != errText(wantErr) {
					t.Fatalf("seed %d lenient=%v workers=%d: error %q, reference %q", seed, lenient, workers, errText(err), errText(wantErr))
				}
				if err != nil {
					continue
				}
				sameStores(t, got, want)
				if lenient && !reflect.DeepEqual(h.Report(), wantH.Report()) {
					t.Fatalf("seed %d workers=%d: health report\n got %+v\nwant %+v", seed, workers, h.Report(), wantH.Report())
				}
			}
		}
	}
}

// TestROADayAllocations pins what a ROA day costs when its rows differ
// from the day before's only in their dates: the same over 10 rows as
// over 5000, because such rows are carried, not parsed.
func TestROADayAllocations(t *testing.T) {
	perDay := func(rows int) float64 {
		csv := func(day timex.Day) []byte {
			var b strings.Builder
			b.WriteString("URI,ASN,IP Prefix,Max Length,Not Before,Not After\n")
			for j := 0; j < rows; j++ {
				fmt.Fprintf(&b, "rsync://rpki.example.net/ripe/%d.roa,AS%d,10.%d.%d.0/24,24,%s,%s\n", j, 64500+j, j/256, j%256, day, day+365)
			}
			return []byte(b.String())
		}
		day := timex.MustParseDay("2020-01-01")
		a, b := csv(day), csv(day+1)
		d := roaDiff{rows: make(map[rpki.ROA]int), delta: make(map[rpki.ROA]int)}
		var src ingest.Source
		next := func(data []byte) {
			d.cur.buf.Reset()
			d.cur.buf.Write(data)
			if err := d.next(&src); err != nil {
				t.Fatal(err)
			}
		}
		next(a)
		runtime.GC()
		return testing.AllocsPerRun(5, func() {
			next(b)
			next(a)
			if len(d.added)+len(d.revoked) != 0 {
				t.Fatalf("restamped rows changed %d ROAs", len(d.added)+len(d.revoked))
			}
		})
	}
	if short, long := perDay(10), perDay(5000); short != long {
		t.Errorf("allocations per day pair: %v over 10 rows, %v over 5000", short, long)
	}
}

// FuzzDayDiff parses a file of each text format as a diff against the
// file before it and in full: a registry file's blocks (as a count per
// block), a ROA CSV's ROAs (as a count per ROA) and a DROP snapshot's
// entries with their lines must be the same either way, as must the
// file's accept and skip counts and, when the file before parsed
// strictly, the strict error.
func FuzzDayDiff(f *testing.F) {
	f.Add("2|arin|20200101|2|2|19830101|20200101|+0000\narin|*|ipv4|*|2|summary\narin|ZZ|ipv4|10.0.0.0|256|20200101|allocated|x\n",
		"2|arin|20200102|2|2|19830101|20200102|+0000\narin|*|ipv4|*|2|summary\narin|ZZ|ipv4|10.0.0.0|256|20200101|available|x\narin|ZZ|ipv4|10.0.1.0|512|20200101|allocated|x")
	f.Add("URI,ASN,IP Prefix,Max Length,Not Before,Not After\nrsync://r/ripe/1.roa,AS1,10.0.0.0/16,16,2020-01-01,2021-01-01\nrsync://r/ripe/1.roa,AS1,10.0.0.0/16,16,2020-01-01,2021-01-01\n",
		"rsync://r/ripe/1.roa,AS1,10.0.0.0/16,16,2020-01-02,2021-01-02\nURI,ASN,IP Prefix,Max Length,Not Before,Not After\nrsync://r/ripe/2.roa,AS2,10.1.0.0/16,24,2020-01-02,2021-01-02")
	f.Add("; Spamhaus DROP List 2020-01-01\n192.0.2.0/24 ; SBL1\n198.51.100.0/24 ; SBL2\n",
		"; Spamhaus DROP List 2020-01-02\n\n198.51.100.0/24 ; SBL2\nbad\n192.0.2.0/24 ; SBL1\n")
	f.Add("a\nb\nc\n", "a\nc\n")
	f.Add("x\n", "")
	f.Fuzz(func(t *testing.T, before, after string) {
		prev, cur := []byte(before), []byte(after)
		for _, strict := range []bool{false, true} {
			fuzzRIRDay(t, prev, cur, strict)
			fuzzROADay(t, prev, cur, strict)
			fuzzDropDay(t, prev, cur, strict)
		}
	})
}

// fill returns a dayText holding data.
func fill(data []byte) *dayText {
	var d dayText
	d.buf.Write(data)
	return &d
}

// srcFor returns a fresh source, or nil for a strict parse.
func srcFor(strict bool) *ingest.Source {
	if strict {
		return nil
	}
	return new(ingest.Source)
}

func sameCounts(t *testing.T, format string, got, want *ingest.Source) {
	t.Helper()
	if got != nil && (got.Records != want.Records || got.Skips != want.Skips) {
		t.Fatalf("%s: diff parse counts %d %v, full parse %d %v", format, got.Records, got.Skips, want.Records, want.Skips)
	}
}

func fuzzRIRDay(t *testing.T, prev, cur []byte, strict bool) {
	l := newRIRLoad(nil, nil, nil, nil)
	counts := func() map[rirKey]int {
		m := make(map[rirKey]int)
		for k, s := range l.keys {
			if s.n != 0 {
				m[k] = s.n
			}
		}
		return m
	}
	full := func(data []byte, src *ingest.Source) (map[rirKey]int, error) {
		blocks, err := rirstats.AppendBlocks(nil, data, 0, src)
		m := make(map[rirKey]int)
		for _, b := range blocks {
			m[rirKey{b.Registry, b.Prefix}]++
		}
		return m, err
	}
	empty, old := fill(nil), fill(prev)
	if err := parseDay(empty, old, false, srcFor(strict), l.parse); err != nil {
		return
	}
	l.count(l.inserted, 1)
	l.removed, l.inserted = l.removed[:0], l.inserted[:0]
	src, wantSrc := srcFor(strict), srcFor(strict)
	want, wantErr := full(cur, wantSrc)
	err := parseDay(old, fill(cur), false, src, l.parse)
	if errText(err) != errText(wantErr) {
		t.Fatalf("rirstats: diff parse error %q, full parse %q", errText(err), errText(wantErr))
	}
	if err != nil {
		return
	}
	l.count(l.removed, -1)
	l.count(l.inserted, 1)
	if got := counts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("rirstats: diff parse blocks %v, full parse %v", got, want)
	}
	sameCounts(t, "rirstats", src, wantSrc)
}

func fuzzROADay(t *testing.T, prev, cur []byte, strict bool) {
	d := roaDiff{rows: make(map[rpki.ROA]int), delta: make(map[rpki.ROA]int)}
	d.cur.buf.Write(prev)
	if err := d.next(srcFor(strict)); err != nil {
		return
	}
	before := make(map[rpki.ROA]int)
	for r, n := range d.rows {
		before[r] = n
	}
	src, wantSrc := srcFor(strict), srcFor(strict)
	roas, wantErr := rpki.AppendSnapshotCSV(nil, cur, true, wantSrc)
	want := make(map[rpki.ROA]int)
	for _, r := range roas {
		want[r]++
	}
	d.cur.buf.Reset()
	d.cur.buf.Write(cur)
	err := d.next(src)
	if errText(err) != errText(wantErr) {
		t.Fatalf("rpki: diff parse error %q, full parse %q", errText(err), errText(wantErr))
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(d.rows, want) {
		t.Fatalf("rpki: diff parse ROAs %v, full parse %v", d.rows, want)
	}
	for _, r := range d.added {
		if before[r] != 0 || want[r] == 0 {
			t.Fatalf("rpki: %v added, rows %d then %d", r, before[r], want[r])
		}
	}
	for _, r := range d.revoked {
		if before[r] == 0 || want[r] != 0 {
			t.Fatalf("rpki: %v revoked, rows %d then %d", r, before[r], want[r])
		}
	}
	if n := len(d.added) + len(d.revoked); n != changed(before, want) {
		t.Fatalf("rpki: %d ROAs added or revoked, %d came or went", n, changed(before, want))
	}
	sameCounts(t, "rpki", src, wantSrc)
}

// changed counts the keys present in exactly one of a and b.
func changed[K comparable](a, b map[K]int) int {
	n := 0
	for k := range a {
		if b[k] == 0 {
			n++
		}
	}
	for k := range b {
		if a[k] == 0 {
			n++
		}
	}
	return n
}

func fuzzDropDay(t *testing.T, prev, cur []byte, strict bool) {
	var d dropDiff
	d.cur.buf.Write(prev)
	if err := d.next(srcFor(strict)); err != nil {
		return
	}
	src, wantSrc := srcFor(strict), srcFor(strict)
	var want []drop.Entry
	var wantLines []int
	wantErr := drop.ParseLines(cur, 0, wantSrc, func(n int, e drop.Entry) {
		want, wantLines = append(want, e), append(wantLines, n)
	})
	d.cur.buf.Reset()
	d.cur.buf.Write(cur)
	err := d.next(src)
	if errText(err) != errText(wantErr) {
		t.Fatalf("drop: diff parse error %q, full parse %q", errText(err), errText(wantErr))
	}
	if err != nil {
		return
	}
	if !slices.Equal(d.day.entries, want) || !slices.Equal(d.day.lines, wantLines) {
		t.Fatalf("drop: diff parse entries %v at lines %v, full parse %v at %v", d.day.entries, d.day.lines, want, wantLines)
	}
	sameCounts(t, "drop", src, wantSrc)
}

// BenchmarkTextLoad times a cold, lenient, journal-less text load
// (DROP, SBL, IRR, ROAs and RIR stats) of a scale-512 world, written
// once per test binary; its bytes are the text files'.
func BenchmarkTextLoad(b *testing.B) {
	dir := scaleWorld(b, 512)
	var size int64
	for _, sub := range []string{"drop", "rpki", "rirstats", "sbl", "irr"} {
		filepath.Walk(filepath.Join(dir, sub), func(_ string, fi os.FileInfo, err error) error {
			if err == nil && !fi.IsDir() {
				size += fi.Size()
			}
			return nil
		})
	}
	b.SetBytes(size)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := LoadWithOptions(dir, LoadOptions{Health: ingest.NewHealth(), Files: filesum.Open(dir, nil)}); err != nil {
			b.Fatal(err)
		}
	}
}
