package archive

// The day diff (DESIGN.md, "Text archives"). DROP, the ROA CSV and each
// registry's delegated-extended file are daily full snapshots, and
// consecutive days barely differ, so a load parses each day's file only
// where it differs from the same source's file the day before. Every
// other line keeps the verdict it had that day — accepted, skipped as
// bad or passed over — so the stores, the health counts and a strict
// load's first error are those of a parse of every line.

import (
	"bytes"

	"dropscope/internal/ingest"
)

// dayText is one source's file as a load read it on one day: its bytes,
// for a lenient load what its lines counted, and the hunks of its diff
// against the day before.
type dayText struct {
	buf    bytes.Buffer
	counts ingest.Source // Records and Skips only
	hunks  []hunk
}

// span is whole lines of a file, data[lo:hi], with line lines before
// them (lineCount(data[:lo])).
type span struct{ lo, hi, line int }

// hunk is a run of changed lines: the day before's lines it removes and
// the day's lines it inserts in their place.
type hunk struct{ old, cur span }

// diffDay appends to dst, in file order, the hunks a parse of cur must
// read against old, the same source's file the day before (empty before
// the first day). The first is both files' heads: every line up to the
// first non-blank one, which the formats read by position (rirstats'
// version line, DROP's dated comment, the CSV's "URI," header), so it
// is never carried. The bodies' longest shared trailing run is carried;
// up to it the bodies are walked in step, runs of shared lines carried
// and each run of line pairs that differ made a hunk, and the lines one
// side has left when the other runs out make the last. A line is shared
// when it is byte-equal or, with keyed, when its roaKey is equal. So a
// day whose lines changed in place parses only those lines, and an
// inserted or removed line costs at most the lines from it to the
// shared tail.
func diffDay(dst []hunk, old, cur []byte, keyed bool) []hunk {
	oh, ch := headEnd(old), headEnd(cur)
	dst = append(dst, hunk{span{0, oh, 0}, span{0, ch, 0}})
	oEnd, cEnd := sharedTail(old, cur, oh, ch, keyed)
	i, j, oLine, cLine := oh, ch, lineCount(old[:oh]), lineCount(cur[:ch])
	for {
		n, m, lines := sharedHead(old[i:oEnd], cur[j:cEnd], keyed)
		i, j, oLine, cLine = i+n, j+m, oLine+lines, cLine+lines
		if i == oEnd || j == cEnd {
			break
		}
		ei, ej := lineEnd(old[:oEnd], i), lineEnd(cur[:cEnd], j)
		dst = addHunk(dst, hunk{span{i, ei, oLine}, span{j, ej, cLine}})
		i, j, oLine, cLine = ei, ej, oLine+1, cLine+1
	}
	if i < oEnd || j < cEnd {
		dst = addHunk(dst, hunk{span{i, oEnd, oLine}, span{j, cEnd, cLine}})
	}
	return dst
}

// addHunk appends h to dst, or extends dst's last body hunk when h
// starts where it ends in both files.
func addHunk(dst []hunk, h hunk) []hunk {
	if last := &dst[len(dst)-1]; len(dst) > 1 && last.old.hi == h.old.lo && last.cur.hi == h.cur.lo {
		last.old.hi, last.cur.hi = h.old.hi, h.cur.hi
		return dst
	}
	return append(dst, h)
}

// sharedHead returns the lengths in a and in b of the longest leading
// run of lines they share, and its number of lines.
func sharedHead(a, b []byte, keyed bool) (n, m, lines int) {
	if !keyed {
		p := commonPrefix(a, b)
		p = bytes.LastIndexByte(a[:p], '\n') + 1
		return p, p, bytes.Count(a[:p], nl)
	}
	for n < len(a) && m < len(b) {
		ea, eb := lineEnd(a, n), lineEnd(b, m)
		if !bytes.Equal(roaKey(a[n:ea]), roaKey(b[m:eb])) {
			break
		}
		n, m, lines = ea, eb, lines+1
	}
	return n, m, lines
}

// sharedTail returns where the longest trailing run of lines old and
// cur share starts in each, looking no further back than their heads'
// ends oh and ch.
func sharedTail(old, cur []byte, oh, ch int, keyed bool) (oEnd, cEnd int) {
	if keyed {
		oEnd, cEnd = len(old), len(cur)
		for oEnd > oh && cEnd > ch {
			lo, lc := lastLine(old, oh, oEnd), lastLine(cur, ch, cEnd)
			if !bytes.Equal(roaKey(old[lo:oEnd]), roaKey(cur[lc:cEnd])) {
				break
			}
			oEnd, cEnd = lo, lc
		}
		return oEnd, cEnd
	}
	s := commonSuffix(old[oh:], cur[ch:])
	// The carried tail must start a line in both files.
	if s > 0 && !(startsLine(old, len(old)-s, oh) && startsLine(cur, len(cur)-s, ch)) {
		if i := bytes.IndexByte(old[len(old)-s:], '\n'); i >= 0 {
			s -= i + 1
		} else {
			s = 0
		}
	}
	return len(old) - s, len(cur) - s
}

var nl = []byte{'\n'}

// headEnd returns the end of data's head: its lines up to and including
// the first non-blank one, or all of data when there is none.
func headEnd(data []byte) int {
	for i := 0; i < len(data); {
		e := lineEnd(data, i)
		if len(bytes.TrimSpace(data[i:e])) > 0 {
			return e
		}
		i = e
	}
	return len(data)
}

// lineEnd returns the end of the line that starts at i: just past its
// newline, or len(data) for a last line without one.
func lineEnd(data []byte, i int) int {
	if j := bytes.IndexByte(data[i:], '\n'); j >= 0 {
		return i + j + 1
	}
	return len(data)
}

// lastLine returns the start of the last line of data[lo:hi], where hi
// ends a line.
func lastLine(data []byte, lo, hi int) int {
	e := hi
	if data[e-1] == '\n' {
		e--
	}
	return lo + bytes.LastIndexByte(data[lo:e], '\n') + 1
}

func startsLine(data []byte, i, lo int) bool { return i == lo || data[i-1] == '\n' }

// commonPrefix returns the length of the longest common prefix of a and
// b, comparing a block at a time where it can.
func commonPrefix(a, b []byte) int {
	n, i := min(len(a), len(b)), 0
	for _, blk := range [...]int{4096, 64} {
		for i+blk <= n && bytes.Equal(a[i:i+blk], b[i:i+blk]) {
			i += blk
		}
	}
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// commonSuffix returns the length of the longest common suffix of a and
// b.
func commonSuffix(a, b []byte) int {
	n, i := min(len(a), len(b)), 0
	for _, blk := range [...]int{4096, 64} {
		for i+blk <= n && bytes.Equal(a[len(a)-i-blk:len(a)-i], b[len(b)-i-blk:len(b)-i]) {
			i += blk
		}
	}
	for i < n && a[len(a)-i-1] == b[len(b)-i-1] {
		i++
	}
	return i
}

// roaKey is what a ROA CSV row's ROA depends on: the trimmed row up to
// its fourth comma (URI, ASN, prefix, max length), or all of it when it
// has fewer. The Not Before and Not After dates, which a daily export
// may restamp on every row, are not in it.
func roaKey(line []byte) []byte {
	line = bytes.TrimSpace(line)
	for i, n := 0, 0; ; n++ {
		j := bytes.IndexByte(line[i:], ',')
		if j < 0 {
			return line
		}
		if n == 3 {
			return line[:i+j]
		}
		i += j + 1
	}
}

// lineParser parses whole lines of one format, the first of them line
// line+1 of its file, counting on src (nil parses strictly); removed
// says the lines are the day before's, read again only for what they
// held.
type lineParser func(data []byte, line int, removed bool, src *ingest.Source) error

// parseDay parses the hunks diffDay finds in cur against prev through
// parse: prev's removed lines, counted apart, then cur's inserted ones
// in file order, on src. Every other line keeps its verdict from prev,
// so for a lenient load (src non-nil) cur's counts are prev's, less the
// removed lines', plus the inserted ones', and they are counted on src.
// It leaves the hunks in cur.hunks.
func parseDay(prev, cur *dayText, keyed bool, src *ingest.Source, parse lineParser) error {
	old, data := prev.buf.Bytes(), cur.buf.Bytes()
	cur.hunks = diffDay(cur.hunks[:0], old, data, keyed)
	var rm, in ingest.Source
	to := src
	if src != nil {
		to = &in
	}
	for _, h := range cur.hunks {
		if s := h.old; s.lo < s.hi {
			if err := parse(old[s.lo:s.hi], s.line, true, &rm); err != nil {
				return err
			}
		}
	}
	for _, h := range cur.hunks {
		if s := h.cur; s.lo < s.hi {
			if err := parse(data[s.lo:s.hi], s.line, false, to); err != nil {
				return err
			}
		}
	}
	if src != nil {
		c, p := &cur.counts, &prev.counts
		c.Records = p.Records - rm.Records + in.Records
		for r := range c.Skips {
			c.Skips[r] = p.Skips[r] - rm.Skips[r] + in.Skips[r]
		}
		src.Accept(c.Records)
		src.Skips.Merge(c.Skips)
	}
	return nil
}

// lineCount returns the number of lines data holds.
func lineCount(data []byte) int {
	n := bytes.Count(data, nl)
	if len(data) > 0 && data[len(data)-1] != '\n' {
		n++
	}
	return n
}
