// Package drop implements the Spamhaus DROP ("Don't Route Or Peer") list
// substrate: the published text format, a store of daily snapshots (the
// form the FireHOL archive preserves), and extraction of listing events —
// when each prefix was added and removed — which anchor every analysis in
// the paper.
package drop

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"dropscope/internal/ingest"
	"dropscope/internal/netx"
	"dropscope/internal/timex"
)

// Entry is one line of a DROP snapshot: a prefix and its SBL reference.
type Entry struct {
	Prefix netx.Prefix
	SBLRef string // e.g. "SBL502548"; may be empty
}

// Write emits entries in the published DROP format:
//
//	; Spamhaus DROP List 2019-06-05
//	192.0.2.0/24 ; SBL123456
func Write(w io.Writer, day timex.Day, entries []Entry) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "; Spamhaus DROP List %s\n", day.String()); err != nil {
		return err
	}
	for _, e := range entries {
		line := e.Prefix.String()
		if e.SBLRef != "" {
			line += " ; " + e.SBLRef
		}
		if _, err := fmt.Fprintln(bw, line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Parse reads a DROP snapshot in the published format. Comment lines
// (starting with ';') are skipped. The first malformed line fails the
// parse; use ParseHealth to quarantine bad lines instead.
func Parse(r io.Reader) ([]Entry, error) {
	return parse(r, nil)
}

// ParseHealth is the lenient variant of Parse: a line that does not
// parse is skipped and counted on src rather than failing the snapshot.
// Accepted entries are also counted on src. A nil src parses strictly,
// as Parse does.
func ParseHealth(r io.Reader, src *ingest.Source) ([]Entry, error) {
	return parse(r, src)
}

func parse(r io.Reader, src *ingest.Source) ([]Entry, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var out []Entry
	err = ParseLines(data, 0, src, func(_ int, e Entry) { out = append(out, e) })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// maxLine bounds one line, its newline excluded: a longer one fails the
// snapshot in either mode with bufio.ErrTooLong, as bufio.Scanner does
// with a 1 MiB buffer.
const maxLine = 1 << 20

// ParseLines parses whole lines of a DROP snapshot held in memory, the
// first of them line line+1 of the file (0 for the whole file), as
// ParseHealth does, and calls fn with each entry and the number of its
// line. A nil src parses strictly.
func ParseLines(data []byte, line int, src *ingest.Source, fn func(line int, e Entry)) error {
	for len(data) > 0 {
		raw := data
		if i := bytes.IndexByte(raw, '\n'); i >= 0 {
			raw, data = raw[:i], raw[i+1:]
		} else {
			data = nil
		}
		line++
		if len(raw) >= maxLine {
			return bufio.ErrTooLong
		}
		ln := string(bytes.TrimSpace(raw))
		if ln == "" || ln[0] == ';' {
			continue
		}
		var e Entry
		if i := strings.IndexByte(ln, ';'); i >= 0 {
			e.SBLRef = strings.TrimSpace(ln[i+1:])
			ln = strings.TrimSpace(ln[:i])
		}
		p, err := netx.ParsePrefix(ln)
		if err != nil {
			if src != nil {
				src.Skip(ingest.BadLine)
				continue
			}
			return fmt.Errorf("drop: line %d: %v", line, err)
		}
		e.Prefix = p
		fn(line, e)
		if src != nil {
			src.Accept(1)
		}
	}
	return nil
}

// Archive stores daily DROP snapshots and derives listing events.
type Archive struct {
	days  []timex.Day
	byDay map[timex.Day][]Entry

	// Listing events are a pure function of the snapshots, and diffing
	// every consecutive snapshot pair is the dominant cost of a repeat
	// Listings call, so the result is cached until the next AddSnapshot.
	mu          sync.Mutex
	listings    []Listing
	listingsFor int // len(days) the cache was diffed at; -1 = no cache
}

// NewArchive returns an empty archive.
func NewArchive() *Archive {
	return &Archive{byDay: make(map[timex.Day][]Entry), listingsFor: -1}
}

// AddSnapshot records the DROP list content for one day. Snapshots must
// be added in day order; duplicate days are rejected.
func (a *Archive) AddSnapshot(day timex.Day, entries []Entry) error {
	if _, dup := a.byDay[day]; dup {
		return fmt.Errorf("drop: duplicate snapshot for %v", day)
	}
	if n := len(a.days); n > 0 && day < a.days[n-1] {
		return fmt.Errorf("drop: snapshot %v out of order", day)
	}
	cp := make([]Entry, len(entries))
	copy(cp, entries)
	a.days = append(a.days, day)
	a.byDay[day] = cp
	a.mu.Lock()
	a.listingsFor = -1
	a.mu.Unlock()
	return nil
}

// Days returns the snapshot days in order.
func (a *Archive) Days() []timex.Day { return a.days }

// Snapshot returns the entries for the given day, if a snapshot exists.
func (a *Archive) Snapshot(day timex.Day) ([]Entry, bool) {
	e, ok := a.byDay[day]
	return e, ok
}

// SnapshotAtOrBefore returns the most recent snapshot at or before day.
func (a *Archive) SnapshotAtOrBefore(day timex.Day) ([]Entry, timex.Day, bool) {
	i := sort.Search(len(a.days), func(i int) bool { return a.days[i] > day })
	if i == 0 {
		return nil, 0, false
	}
	d := a.days[i-1]
	return a.byDay[d], d, true
}

// ListedAt reports whether p appeared in the snapshot effective on day.
func (a *Archive) ListedAt(p netx.Prefix, day timex.Day) bool {
	entries, _, ok := a.SnapshotAtOrBefore(day)
	if !ok {
		return false
	}
	for _, e := range entries {
		if e.Prefix == p {
			return true
		}
	}
	return false
}

// Listing is one prefix's stay on the DROP list.
type Listing struct {
	Prefix     netx.Prefix
	SBLRef     string
	Added      timex.Day
	Removed    timex.Day // first snapshot day without the prefix
	HasRemoved bool
}

// Listings diffs consecutive snapshots into per-prefix listing events,
// ordered by (Added, Prefix). A prefix relisted after removal yields a
// second Listing. Prefixes present in the first snapshot are treated as
// added on that day. The diff is cached between AddSnapshot calls; the
// returned slice is the caller's to keep.
func (a *Archive) Listings() []Listing {
	a.mu.Lock()
	if a.listingsFor != len(a.days) {
		a.listings = a.diffListings()
		a.listingsFor = len(a.days)
	}
	cached := a.listings
	a.mu.Unlock()
	out := make([]Listing, len(cached))
	copy(out, cached)
	return out
}

// diffListings walks the snapshots once, keeping one open listing per
// prefix with the index of the last day it was seen: a listing whose
// prefix skips a day was removed on the day after its last sighting.
// A prefix listed twice on its first day keeps the last entry's SBL ref.
func (a *Archive) diffListings() []Listing {
	type open struct {
		prefix netx.Prefix
		added  timex.Day
		sblRef string
		last   int // index in days of the last snapshot listing the prefix
	}
	var opens []open
	byPrefix := make(map[netx.Prefix]int) // index into opens
	var out []Listing
	closeOut := func(o *open) {
		out = append(out, Listing{Prefix: o.prefix, SBLRef: o.sblRef, Added: o.added, Removed: a.days[o.last+1], HasRemoved: true})
	}
	for i, day := range a.days {
		for _, e := range a.byDay[day] {
			k, ok := byPrefix[e.Prefix]
			if !ok {
				byPrefix[e.Prefix] = len(opens)
				opens = append(opens, open{prefix: e.Prefix, added: day, sblRef: e.SBLRef, last: i})
				continue
			}
			switch o := &opens[k]; {
			case o.last == i:
				if o.added == day {
					o.sblRef = e.SBLRef
				}
			case o.last == i-1:
				o.last = i
			default: // removed after o.last, relisted today
				closeOut(o)
				*o = open{prefix: e.Prefix, added: day, sblRef: e.SBLRef, last: i}
			}
		}
	}
	for k := range opens {
		if o := &opens[k]; o.last == len(a.days)-1 {
			out = append(out, Listing{Prefix: o.prefix, SBLRef: o.sblRef, Added: o.added})
		} else {
			closeOut(o)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Added != out[j].Added {
			return out[i].Added < out[j].Added
		}
		return out[i].Prefix.Compare(out[j].Prefix) < 0
	})
	return out
}
