// Package rpki implements the RPKI substrate of the pipeline: Route
// Origin Authorizations (including AS0), per-RIR trust anchors, route
// origin validation per RFC 6811, and a journaled archive that answers
// "was this prefix signed on day d, by which ASN, under which TAL" —
// the queries behind the paper's Table 1 and Figures 4–6.
package rpki

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"dropscope/internal/bgp"
	"dropscope/internal/ingest"
	"dropscope/internal/netx"
	"dropscope/internal/timex"
)

// TrustAnchor identifies the publication point a ROA chains to. The five
// RIR production TALs are configured in validators by default; the APNIC
// and LACNIC AS0 TALs are separate and NOT configured by default — the
// distinction §6.2.2 of the paper turns on.
type TrustAnchor string

// Production and AS0 trust anchors.
const (
	TAAfrinic TrustAnchor = "afrinic"
	TAAPNIC   TrustAnchor = "apnic"
	TAARIN    TrustAnchor = "arin"
	TALACNIC  TrustAnchor = "lacnic"
	TARIPE    TrustAnchor = "ripe"

	TAAPNICAS0  TrustAnchor = "apnic-as0"
	TALACNICAS0 TrustAnchor = "lacnic-as0"
)

// DefaultTALs is the trust-anchor set configured in validation software
// by default: the five production RIR TALs, no AS0 TALs.
var DefaultTALs = []TrustAnchor{TAAfrinic, TAAPNIC, TAARIN, TALACNIC, TARIPE}

// WithAS0TALs is DefaultTALs plus the APNIC and LACNIC AS0 TALs: the set
// a validator runs with once an operator opts in to AS0 filtering.
var WithAS0TALs = []TrustAnchor{TAAfrinic, TAAPNIC, TAARIN, TALACNIC, TARIPE, TAAPNICAS0, TALACNICAS0}

// IsAS0TAL reports whether ta is one of the informational AS0 trust
// anchors that validators do not configure by default.
func (ta TrustAnchor) IsAS0TAL() bool {
	return ta == TAAPNICAS0 || ta == TALACNICAS0
}

// ROA is a route origin authorization.
type ROA struct {
	Prefix    netx.Prefix
	MaxLength int
	ASN       bgp.ASN // bgp.AS0 asserts "do not route"
	TA        TrustAnchor
}

// Validate checks the ROA's internal consistency.
func (r ROA) Validate() error {
	if r.MaxLength < r.Prefix.Bits() || r.MaxLength > 32 {
		return fmt.Errorf("rpki: ROA %s maxLength %d out of range", r.Prefix, r.MaxLength)
	}
	return nil
}

// CoversAnnouncement reports whether the announcement of p matches this
// ROA's prefix and maxLength constraint (origin not considered).
func (r ROA) CoversAnnouncement(p netx.Prefix) bool {
	return r.Prefix.Covers(p) && p.Bits() <= r.MaxLength
}

// String renders the ROA in the conventional "prefix-maxlen => ASN" form.
func (r ROA) String() string {
	return fmt.Sprintf("%s-%d => %s (%s)", r.Prefix, r.MaxLength, r.ASN, r.TA)
}

// Validity is an RFC 6811 route origin validation outcome.
type Validity int

// Validation states.
const (
	NotFound Validity = iota // no ROA covers the prefix
	Valid                    // some ROA matches prefix, maxLength, and origin
	Invalid                  // ROAs cover the prefix but none matches
)

// String names the validity state.
func (v Validity) String() string {
	switch v {
	case Valid:
		return "valid"
	case Invalid:
		return "invalid"
	default:
		return "notfound"
	}
}

// Validate implements RFC 6811 origin validation of an announcement of
// prefix p with the given origin against the candidate ROAs: Valid if any
// covering ROA authorizes the origin within maxLength; Invalid if at
// least one ROA covers p but none matches; NotFound otherwise.
func Validate(p netx.Prefix, origin bgp.ASN, roas []ROA) Validity {
	covered := false
	for _, r := range roas {
		if !r.Prefix.Covers(p) {
			continue
		}
		covered = true
		if r.CoversAnnouncement(p) && r.ASN == origin && r.ASN != bgp.AS0 {
			return Valid
		}
	}
	if covered {
		return Invalid
	}
	return NotFound
}

// Event is one archive journal entry.
type Event struct {
	Day     timex.Day
	Created bool // false = revoked
	ROA     ROA
}

// Archive is a journaled ROA database mirroring a daily ROA archive.
// Events must be appended in day order.
type Archive struct {
	events  []Event
	lastDay timex.Day
	trie    netx.Trie[[]*roaSpan]
	spans   []*roaSpan
}

type roaSpan struct {
	roa     ROA
	created timex.Day
	revoked timex.Day
	open    bool
}

// Add journals creation of roa on day d.
func (a *Archive) Add(d timex.Day, roa ROA) error {
	if err := roa.Validate(); err != nil {
		return err
	}
	if len(a.events) > 0 && d < a.lastDay {
		return fmt.Errorf("rpki: journal out of order: %v after %v", d, a.lastDay)
	}
	a.events = append(a.events, Event{d, true, roa})
	a.lastDay = d
	sp := &roaSpan{roa: roa, created: d, open: true}
	a.spans = append(a.spans, sp)
	lst, _ := a.trie.Get(roa.Prefix)
	a.trie.Insert(roa.Prefix, append(lst, sp))
	return nil
}

// Revoke journals removal of the ROA (matched by prefix, maxLength, ASN,
// TA) on day d. Revoking an absent ROA is an error.
func (a *Archive) Revoke(d timex.Day, roa ROA) error {
	if len(a.events) > 0 && d < a.lastDay {
		return fmt.Errorf("rpki: journal out of order: %v after %v", d, a.lastDay)
	}
	lst, _ := a.trie.Get(roa.Prefix)
	for _, sp := range lst {
		if sp.open && sp.roa == roa {
			sp.revoked, sp.open = d, false
			a.events = append(a.events, Event{d, false, roa})
			a.lastDay = d
			return nil
		}
	}
	return fmt.Errorf("rpki: revoke of absent ROA %v", roa)
}

// Len returns the number of journal entries.
func (a *Archive) Len() int { return len(a.events) }

// Events returns the journal in day order (read-only).
func (a *Archive) Events() []Event { return a.events }

// ChangeDays returns the distinct days on which the archive content
// changed, in order.
func (a *Archive) ChangeDays() []timex.Day {
	var out []timex.Day
	for _, e := range a.events {
		if n := len(out); n == 0 || out[n-1] != e.Day {
			out = append(out, e.Day)
		}
	}
	return out
}

func (sp *roaSpan) liveAt(d timex.Day) bool {
	return d >= sp.created && (sp.open || d < sp.revoked)
}

// CoveringAt returns the ROAs live on day d whose prefix covers p,
// restricted to the given trust anchors (nil means all).
func (a *Archive) CoveringAt(p netx.Prefix, d timex.Day, tals []TrustAnchor) []ROA {
	var out []ROA
	a.trie.Covering(p, func(_ netx.Prefix, lst []*roaSpan) bool {
		for _, sp := range lst {
			if sp.liveAt(d) && talAllowed(sp.roa.TA, tals) {
				out = append(out, sp.roa)
			}
		}
		return true
	})
	return out
}

func talAllowed(ta TrustAnchor, tals []TrustAnchor) bool {
	if tals == nil {
		return true
	}
	for _, t := range tals {
		if t == ta {
			return true
		}
	}
	return false
}

// ValidateAt runs RFC 6811 validation of (p, origin) against the ROAs
// live on day d under the given trust anchors (nil = all): the outcome
// Validate gives over the same ROAs. It walks the covering ROAs in
// place and stops at the first match, so it allocates nothing and the
// daemon's point queries call it directly.
func (a *Archive) ValidateAt(p netx.Prefix, origin bgp.ASN, d timex.Day, tals []TrustAnchor) Validity {
	v := NotFound
	a.trie.Covering(p, func(_ netx.Prefix, lst []*roaSpan) bool {
		for _, sp := range lst {
			if !sp.liveAt(d) || !talAllowed(sp.roa.TA, tals) {
				continue
			}
			v = Invalid
			if p.Bits() <= sp.roa.MaxLength && sp.roa.ASN == origin && sp.roa.ASN != bgp.AS0 {
				v = Valid
				return false
			}
		}
		return true
	})
	return v
}

// SignedAt reports whether any live ROA on day d covers p (any TA). It
// walks the covering ROAs in place and stops at the first live one.
func (a *Archive) SignedAt(p netx.Prefix, d timex.Day) bool {
	signed := false
	a.trie.Covering(p, func(_ netx.Prefix, lst []*roaSpan) bool {
		for _, sp := range lst {
			if sp.liveAt(d) {
				signed = true
				return false
			}
		}
		return true
	})
	return signed
}

// FirstSigned returns the first day a ROA covering p was created, over
// the whole journal.
func (a *Archive) FirstSigned(p netx.Prefix) (timex.Day, bgp.ASN, bool) {
	var (
		best    timex.Day
		bestASN bgp.ASN
		found   bool
	)
	a.trie.Covering(p, func(_ netx.Prefix, lst []*roaSpan) bool {
		for _, sp := range lst {
			if !found || sp.created < best {
				best, bestASN, found = sp.created, sp.roa.ASN, true
			}
		}
		return true
	})
	return best, bestASN, found
}

// SpanInfo describes one ROA's lifetime.
type SpanInfo struct {
	ROA     ROA
	Created timex.Day
	Revoked timex.Day
	Open    bool
}

// History returns the lifetime of every ROA whose prefix covers p,
// ordered by creation day. The §6.1 analysis uses this to see ROA origin
// ASNs changing in step with BGP origins.
func (a *Archive) History(p netx.Prefix) []SpanInfo {
	var out []SpanInfo
	a.trie.Covering(p, func(_ netx.Prefix, lst []*roaSpan) bool {
		for _, sp := range lst {
			out = append(out, SpanInfo{sp.roa, sp.created, sp.revoked, sp.open})
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Created < out[j].Created })
	return out
}

// LiveAt returns all ROAs live on day d under the given trust anchors
// (nil = all), in prefix order.
func (a *Archive) LiveAt(d timex.Day, tals []TrustAnchor) []ROA {
	var out []ROA
	a.trie.Walk(func(_ netx.Prefix, lst []*roaSpan) bool {
		for _, sp := range lst {
			if sp.liveAt(d) && talAllowed(sp.roa.TA, tals) {
				out = append(out, sp.roa)
			}
		}
		return true
	})
	return out
}

// LiveCountAt returns len(LiveAt(d, tals)) without building the list.
func (a *Archive) LiveCountAt(d timex.Day, tals []TrustAnchor) int {
	n := 0
	for _, sp := range a.spans {
		if sp.liveAt(d) && talAllowed(sp.roa.TA, tals) {
			n++
		}
	}
	return n
}

// WriteSnapshotCSV writes the ROAs live on day d in the RIPE daily-export
// CSV form: URI,ASN,IP Prefix,Max Length,Not Before,Not After.
func (a *Archive) WriteSnapshotCSV(w io.Writer, d timex.Day) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("URI,ASN,IP Prefix,Max Length,Not Before,Not After\n"); err != nil {
		return err
	}
	for _, r := range a.LiveAt(d, nil) {
		uri := fmt.Sprintf("rsync://rpki.example.net/%s/%s.roa", r.TA, strings.ReplaceAll(r.Prefix.String(), "/", "-"))
		if _, err := fmt.Fprintf(bw, "%s,AS%d,%s,%d,%s,%s\n",
			uri, uint32(r.ASN), r.Prefix, r.MaxLength, d.String(), (d + 365).String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseSnapshotCSV reads a snapshot in the format WriteSnapshotCSV emits.
// The trust anchor is recovered from the URI's first path component. The
// first malformed line fails the parse; use ParseSnapshotCSVHealth to
// quarantine bad lines instead.
func ParseSnapshotCSV(r io.Reader) ([]ROA, error) {
	return parseSnapshotCSV(r, nil)
}

// ParseSnapshotCSVHealth is the lenient variant of ParseSnapshotCSV: a
// malformed line is skipped and counted on src rather than failing the
// snapshot. Accepted ROAs are also counted on src.
func ParseSnapshotCSVHealth(r io.Reader, src *ingest.Source) ([]ROA, error) {
	return parseSnapshotCSV(r, src)
}

func parseSnapshotCSV(r io.Reader, src *ingest.Source) ([]ROA, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	var out []ROA
	first := true
	skip := func(err error) error {
		if src != nil {
			src.Skip(ingest.BadLine)
			return nil
		}
		return err
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if first {
			first = false
			if strings.HasPrefix(line, "URI,") {
				continue
			}
		}
		fields := strings.Split(line, ",")
		if len(fields) < 4 {
			if err := skip(fmt.Errorf("rpki: malformed CSV line %q", line)); err != nil {
				return nil, err
			}
			continue
		}
		var roa ROA
		roa.TA = taFromURI(fields[0])
		asnStr := strings.TrimPrefix(strings.TrimSpace(fields[1]), "AS")
		asn, err := strconv.ParseUint(asnStr, 10, 32)
		if err != nil {
			if err := skip(fmt.Errorf("rpki: bad ASN %q", fields[1])); err != nil {
				return nil, err
			}
			continue
		}
		roa.ASN = bgp.ASN(asn)
		roa.Prefix, err = netx.ParsePrefix(strings.TrimSpace(fields[2]))
		if err != nil {
			if err := skip(err); err != nil {
				return nil, err
			}
			continue
		}
		roa.MaxLength, err = strconv.Atoi(strings.TrimSpace(fields[3]))
		if err != nil {
			if err := skip(fmt.Errorf("rpki: bad maxLength %q", fields[3])); err != nil {
				return nil, err
			}
			continue
		}
		if err := roa.Validate(); err != nil {
			if err := skip(err); err != nil {
				return nil, err
			}
			continue
		}
		out = append(out, roa)
		if src != nil {
			src.Accept(1)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func taFromURI(uri string) TrustAnchor {
	const scheme = "rsync://"
	s := strings.TrimPrefix(uri, scheme)
	parts := strings.Split(s, "/")
	if len(parts) >= 2 {
		return TrustAnchor(parts[1])
	}
	return ""
}
