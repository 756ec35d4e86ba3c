// Package rirstats implements the RIR statistics exchange format (the
// "delegated-extended" files each RIR publishes daily) and a journaled
// allocation timeline that answers: which registry manages a prefix, was
// it allocated on a given day, and how much free-pool space each RIR had
// over time — the substrate behind the paper's Figures 6 and 7 and the
// unallocated-prefix classification.
package rirstats

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"

	"dropscope/internal/ingest"
	"dropscope/internal/netx"
	"dropscope/internal/timex"
)

// RIR names as they appear in stats files.
type RIR string

// The five RIRs.
const (
	Afrinic RIR = "afrinic"
	APNIC   RIR = "apnic"
	ARIN    RIR = "arin"
	LACNIC  RIR = "lacnic"
	RIPE    RIR = "ripencc"
)

// AllRIRs lists the five registries in alphabetical order.
var AllRIRs = []RIR{Afrinic, APNIC, ARIN, LACNIC, RIPE}

// Status is a delegation status from the stats file format.
type Status string

// Delegation statuses.
const (
	Available Status = "available"
	Allocated Status = "allocated"
	Assigned  Status = "assigned"
	Reserved  Status = "reserved"
)

// Record is one line of a delegated-extended file.
type Record struct {
	Registry RIR
	CC       string
	Start    netx.Addr
	Count    uint64
	Date     timex.Day // date of the delegation; zero for available space
	Status   Status
	OpaqueID string
}

// Prefixes decomposes the record's [Start, Start+Count) range into
// CIDR-aligned prefixes, the way delegated ranges map onto routable
// blocks.
func (r Record) Prefixes() []netx.Prefix {
	return RangeToPrefixes(r.Start, r.Count)
}

// RangeToPrefixes returns the minimal CIDR decomposition of the range
// [start, start+count).
func RangeToPrefixes(start netx.Addr, count uint64) []netx.Prefix {
	var out []netx.Prefix
	a := uint64(start)
	for count > 0 {
		p, size := firstBlock(a, count)
		out = append(out, p)
		a += size
		count -= size
	}
	return out
}

// firstBlock returns the first block of the decomposition of
// [a, a+count), count > 0, and its size: the largest power of two that
// is aligned at a and no larger than count.
func firstBlock(a, count uint64) (netx.Prefix, uint64) {
	size := uint64(1) << (bits.Len64(count) - 1)
	if a != 0 {
		size = min(size, a&-a) // low-bit alignment
	}
	size = min(size, 1<<32)
	return netx.PrefixFrom(netx.Addr(a), 32-bits.TrailingZeros64(size)), size
}

// WriteFile emits a delegated-extended stats file for one registry:
// version line, summary lines, then records.
func WriteFile(w io.Writer, registry RIR, day timex.Day, recs []Record) error {
	bw := bufio.NewWriter(w)
	var v4Count int
	for _, r := range recs {
		if r.Registry == registry {
			v4Count++
		}
	}
	if _, err := fmt.Fprintf(bw, "2|%s|%s|%d|%d|19830101|%s|+0000\n",
		registry, day.Compact(), v4Count, v4Count, day.Compact()); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%s|*|ipv4|*|%d|summary\n", registry, v4Count); err != nil {
		return err
	}
	for _, r := range recs {
		if r.Registry != registry {
			continue
		}
		date := ""
		if r.Status != Available {
			date = r.Date.Compact()
		}
		cc := r.CC
		if cc == "" {
			cc = "ZZ"
		}
		if _, err := fmt.Fprintf(bw, "%s|%s|ipv4|%s|%d|%s|%s|%s\n",
			registry, cc, r.Start, r.Count, date, r.Status, r.OpaqueID); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseFile reads a delegated-extended stats file, returning its records.
// Summary and version lines are validated and skipped. The first
// malformed line fails the parse; use ParseFileHealth to quarantine bad
// lines instead.
func ParseFile(r io.Reader) ([]Record, error) {
	return parseRecords(r, nil)
}

// ParseFileHealth is the lenient variant of ParseFile: a malformed line
// is skipped and counted on src rather than failing the file. Accepted
// records are also counted on src.
func ParseFileHealth(r io.Reader, src *ingest.Source) ([]Record, error) {
	return parseRecords(r, src)
}

func parseRecords(r io.Reader, src *ingest.Source) ([]Record, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	sc := scanner{data: data, src: src}
	out := make([]Record, 0, bytes.Count(data, []byte{'\n'}))
	for {
		ok, err := sc.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		l := &sc.line
		out = append(out, Record{
			Registry: internRIR(l.registry),
			CC:       internCC(l.cc),
			Start:    l.start,
			Count:    l.count,
			Date:     l.date,
			Status:   internStatus(l.status),
			OpaqueID: string(l.opaque),
		})
	}
}

// Block is one CIDR-aligned block of a delegation line with the two
// fields a diff of consecutive snapshots compares.
type Block struct {
	Registry RIR
	Prefix   netx.Prefix
	Status   Status
}

// AppendBlocks parses a delegated-extended file held in memory and
// appends the CIDR decomposition of each of its IPv4 records to dst, in
// file order: what ParseFile followed by Record.Prefixes yields, without
// a Record, a string or a prefix slice per line. A nil src parses
// strictly, as ParseFile does; otherwise malformed lines and accepted
// records are counted on src, as ParseFileHealth does.
func AppendBlocks(dst []Block, data []byte, src *ingest.Source) ([]Block, error) {
	sc := scanner{data: data, src: src}
	for {
		ok, err := sc.next()
		if err != nil {
			return dst, err
		}
		if !ok {
			return dst, nil
		}
		l := &sc.line
		registry, status := internRIR(l.registry), internStatus(l.status)
		for a, count := uint64(l.start), l.count; count > 0; {
			p, size := firstBlock(a, count)
			dst = append(dst, Block{registry, p, status})
			a += size
			count -= size
		}
	}
}

// maxLine bounds one line, its newline included. A longer one fails the
// whole file in either mode rather than counting as one bad line: a file
// with a megabyte between newlines is not a stats file.
const maxLine = 1 << 20

// scanner walks the IPv4 delegation lines of a delegated-extended file
// held in memory. Fields are cut in place, so nothing is allocated per
// line; both ParseFile and AppendBlocks read their records off it.
type scanner struct {
	data   []byte // the unread rest of the file
	lineNo int
	src    *ingest.Source // nil parses strictly
	line   line
}

// line is one delegation line. Its text fields alias the file.
type line struct {
	registry, cc, status, opaque []byte

	start netx.Addr
	count uint64
	date  timex.Day
}

// next advances to the next IPv4 delegation line and reports whether
// there was one. Version, summary, comment, blank and non-IPv4 lines are
// passed over. A malformed line ends a strict scan with an error naming
// the line, and is counted on src and passed over in a lenient one.
func (s *scanner) next() (bool, error) {
	for len(s.data) > 0 {
		raw := s.data
		if i := bytes.IndexByte(raw, '\n'); i >= 0 {
			raw, s.data = raw[:i], raw[i+1:]
		} else {
			s.data = nil
		}
		s.lineNo++
		if len(raw) >= maxLine {
			return false, bufio.ErrTooLong
		}
		ln := bytes.TrimSpace(raw)
		if len(ln) == 0 || ln[0] == '#' {
			continue
		}
		// The first eight fields are all a record has; n stops counting
		// there.
		var f [8][]byte
		n, from := 0, 0
		for i := 0; i < len(ln) && n < len(f); i++ {
			if ln[i] == '|' {
				f[n] = ln[from:i]
				n++
				from = i + 1
			}
		}
		if n < len(f) {
			f[n] = ln[from:]
			n++
		}
		if s.lineNo == 1 && n >= 2 && string(f[0]) == "2" {
			continue // version line
		}
		if n >= 6 && string(f[2]) == "ipv4" && string(f[3]) == "*" {
			continue // summary line (ipv4|*|count|summary)
		}
		if n >= 6 && string(f[1]) == "*" {
			continue // summary line
		}
		if n >= 7 && string(f[2]) != "ipv4" {
			continue // this pipeline is IPv4-only
		}
		if err := s.line.parse(&f, n, s.lineNo); err != nil {
			if s.src == nil {
				return false, err
			}
			s.src.Skip(ingest.BadLine)
			continue
		}
		if s.src != nil {
			s.src.Accept(1)
		}
		return true, nil
	}
	return false, nil
}

// parse fills l from the n fields of an IPv4 delegation line, or says
// what is wrong with line lineNo.
func (l *line) parse(f *[8][]byte, n, lineNo int) (err error) {
	if n < 7 {
		return fmt.Errorf("rirstats: line %d: %d fields", lineNo, n)
	}
	if l.start, err = netx.ParseAddrBytes(f[3]); err != nil {
		return fmt.Errorf("rirstats: line %d: %v", lineNo, err)
	}
	var ok bool
	if l.count, ok = parseCount(f[4]); !ok {
		return fmt.Errorf("rirstats: line %d: bad count %q", lineNo, f[4])
	}
	if l.count > (1<<32)-uint64(l.start) {
		return fmt.Errorf("rirstats: line %d: range %s+%d exceeds the address space", lineNo, l.start, l.count)
	}
	l.date = 0
	if len(f[5]) > 0 {
		if l.date, err = timex.ParseDayBytes(f[5]); err != nil {
			return fmt.Errorf("rirstats: line %d: %v", lineNo, err)
		}
	}
	l.registry, l.cc, l.status, l.opaque = f[0], f[1], f[6], f[7]
	return nil
}

// parseCount reads a positive decimal integer that fits in 64 bits.
func parseCount(b []byte) (uint64, bool) {
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' || n > math.MaxUint64/10 {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
		if n < uint64(c-'0') {
			return 0, false // wrapped
		}
	}
	return n, n > 0
}

// The strings a record carries come from three small vocabularies, so a
// parsed file shares them instead of holding a copy per line.

var statuses = [...]Status{Available, Allocated, Assigned, Reserved}

func internRIR(b []byte) RIR {
	for _, r := range AllRIRs {
		if string(b) == string(r) {
			return r
		}
	}
	return RIR(b)
}

func internStatus(b []byte) Status {
	for _, st := range statuses {
		if string(b) == string(st) {
			return st
		}
	}
	return Status(b)
}

// countryCodes is every two-capital-letter code back to back; a
// record's CC is a substring of it.
var countryCodes = func() string {
	b := make([]byte, 0, 26*26*2)
	for c0 := byte('A'); c0 <= 'Z'; c0++ {
		for c1 := byte('A'); c1 <= 'Z'; c1++ {
			b = append(b, c0, c1)
		}
	}
	return string(b)
}()

func internCC(b []byte) string {
	if len(b) == 2 && 'A' <= b[0] && b[0] <= 'Z' && 'A' <= b[1] && b[1] <= 'Z' {
		i := 2 * (26*int(b[0]-'A') + int(b[1]-'A'))
		return countryCodes[i : i+2]
	}
	return string(b)
}

// Timeline tracks the allocation status of registry-managed space over
// time. Managed blocks are registered once; status transitions are
// journaled per prefix.
type Timeline struct {
	managed netx.Trie[*blockHist]
	blocks  []*blockHist
}

type blockHist struct {
	prefix   netx.Prefix
	registry RIR
	changes  []statusChange // in day order
}

type statusChange struct {
	day    timex.Day
	status Status
}

// Manage registers a block as part of a registry's managed space with an
// initial status effective from the beginning of time.
func (t *Timeline) Manage(p netx.Prefix, registry RIR, initial Status) error {
	if _, ok := t.managed.Get(p); ok {
		return fmt.Errorf("rirstats: %s already managed", p)
	}
	h := &blockHist{prefix: p, registry: registry, changes: []statusChange{{day: -1 << 30, status: initial}}}
	t.managed.Insert(p, h)
	t.blocks = append(t.blocks, h)
	return nil
}

// SetStatus journals a status change for block p on day d. The block
// must exactly match a managed block.
func (t *Timeline) SetStatus(p netx.Prefix, d timex.Day, s Status) error {
	h, ok := t.managed.Get(p)
	if !ok {
		return fmt.Errorf("rirstats: %s is not a managed block", p)
	}
	if n := len(h.changes); n > 0 && d < h.changes[n-1].day {
		return fmt.Errorf("rirstats: %s: status change out of order", p)
	}
	h.changes = append(h.changes, statusChange{d, s})
	return nil
}

func (h *blockHist) statusAt(d timex.Day) Status {
	st := h.changes[0].status
	for _, c := range h.changes {
		if c.day > d {
			break
		}
		st = c.status
	}
	return st
}

// StatusAt returns the status and registry of the most specific managed
// block covering p on day d.
func (t *Timeline) StatusAt(p netx.Prefix, d timex.Day) (Status, RIR, bool) {
	_, h, ok := t.managed.LongestMatch(p)
	if !ok {
		return "", "", false
	}
	return h.statusAt(d), h.registry, true
}

// AllocatedAt reports whether p lies inside a block that was allocated
// or assigned on day d.
func (t *Timeline) AllocatedAt(p netx.Prefix, d timex.Day) bool {
	st, _, ok := t.StatusAt(p, d)
	return ok && (st == Allocated || st == Assigned)
}

// UnallocatedAt reports whether p is RIR-managed but in the free pool
// (available or reserved) on day d, or not managed by any RIR at all —
// the paper's "unallocated" category.
func (t *Timeline) UnallocatedAt(p netx.Prefix, d timex.Day) bool {
	return !t.AllocatedAt(p, d)
}

// FreePool returns the number of addresses in the registry's managed
// space that were available on day d.
func (t *Timeline) FreePool(registry RIR, d timex.Day) uint64 {
	var n uint64
	for _, h := range t.blocks {
		if h.registry == registry && h.statusAt(d) == Available {
			n += h.prefix.NumAddrs()
		}
	}
	return n
}

// SpaceWhere returns the union of managed blocks of the registry (or all
// registries if registry is empty) whose status on day d satisfies keep.
func (t *Timeline) SpaceWhere(registry RIR, d timex.Day, keep func(Status) bool) *netx.Set {
	var set netx.Set
	for _, h := range t.blocks {
		if registry != "" && h.registry != registry {
			continue
		}
		if keep(h.statusAt(d)) {
			set.Add(h.prefix)
		}
	}
	return &set
}

// EachAt calls fn with every managed block, its registry and its status
// on day d, in registration order. It walks the timeline in place: for
// sums over the blocks, where RecordsAt would sort records that are
// each one prefix.
func (t *Timeline) EachAt(d timex.Day, fn func(p netx.Prefix, registry RIR, st Status)) {
	for _, h := range t.blocks {
		fn(h.prefix, h.registry, h.statusAt(d))
	}
}

// RecordsAt flattens the timeline into delegated-extended records for
// day d, ordered by start address.
func (t *Timeline) RecordsAt(d timex.Day) []Record {
	var out []Record
	for _, h := range t.blocks {
		st := h.statusAt(d)
		rec := Record{
			Registry: h.registry,
			Start:    h.prefix.Addr(),
			Count:    h.prefix.NumAddrs(),
			Status:   st,
		}
		if st != Available {
			// Date of the transition that produced the current status.
			for _, c := range h.changes {
				if c.day > d {
					break
				}
				if c.status == st {
					rec.Date = c.day
				}
			}
		}
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// ManagedBy returns the registry managing p, if any.
func (t *Timeline) ManagedBy(p netx.Prefix) (RIR, bool) {
	_, h, ok := t.managed.LongestMatch(p)
	if !ok {
		return "", false
	}
	return h.registry, true
}

// ChangeDays returns the distinct days on which any block's status
// changed, in ascending order (the sentinel initial day is excluded).
func (t *Timeline) ChangeDays() []timex.Day {
	seen := make(map[timex.Day]bool)
	for _, h := range t.blocks {
		for _, c := range h.changes[1:] {
			seen[c.day] = true
		}
	}
	out := make([]timex.Day, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Blocks returns every managed block with its registry, in address order.
func (t *Timeline) Blocks() []Record {
	out := make([]Record, 0, len(t.blocks))
	for _, h := range t.blocks {
		out = append(out, Record{Registry: h.registry, Start: h.prefix.Addr(), Count: h.prefix.NumAddrs()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}
