// Package sbl implements the Spamhaus Block List substrate: a store of
// SBL records (the freeform text that documents why a prefix was listed)
// and the paper's Appendix-A semi-automated categorization — keyword
// matching with a manual-review fallback, multi-label output, and
// extraction of the "malicious ASN" named in the record.
package sbl

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"dropscope/internal/bgp"
	"dropscope/internal/ingest"
)

// Category is one of the paper's six DROP prefix categories (§3.1).
type Category uint8

// Categories, in the order Figure 1 reports them.
const (
	Hijacked Category = iota
	Snowshoe
	KnownSpam
	MaliciousHosting
	Unallocated
	NoRecord
	numCategories
)

// String returns the paper's abbreviation for c.
func (c Category) String() string {
	switch c {
	case Hijacked:
		return "HJ"
	case Snowshoe:
		return "SS"
	case KnownSpam:
		return "KS"
	case MaliciousHosting:
		return "MH"
	case Unallocated:
		return "UA"
	case NoRecord:
		return "NR"
	}
	return "??"
}

// Name returns the full category name.
func (c Category) Name() string {
	switch c {
	case Hijacked:
		return "Hijacked"
	case Snowshoe:
		return "Snowshoe Spam"
	case KnownSpam:
		return "Known Spam Operation"
	case MaliciousHosting:
		return "Malicious Hosting"
	case Unallocated:
		return "Unallocated"
	case NoRecord:
		return "No SBL Record"
	}
	return "Unknown"
}

// Categories lists all categories in report order.
func Categories() []Category {
	return []Category{Hijacked, Snowshoe, KnownSpam, MaliciousHosting, Unallocated, NoRecord}
}

// Record is one SBL database entry.
type Record struct {
	ID   string // e.g. "SBL502548"
	Text string // freeform investigator notes
}

// Classification is the outcome of categorizing one record.
type Classification struct {
	Categories []Category // sorted, deduplicated; empty if nothing matched
	ASNs       []bgp.ASN  // "malicious ASNs" named in the record
	// NeedsReview is set when no keyword matched (Appendix A: 7.3% of
	// records) or when 'hosting' appeared outside an obviously malicious
	// context; a human would assign the label.
	NeedsReview bool
}

// Has reports whether the classification includes c.
func (cl Classification) Has(c Category) bool {
	for _, got := range cl.Categories {
		if got == c {
			return true
		}
	}
	return false
}

// maliciousHostingContexts are the usages the paper's manual pass
// confirmed as malicious ("spam hosting, bulletproof hosting, botnet
// hosting etc"). 'hosting' alone — e.g. a contact address like
// "billing@ahostinginc.com" — does not classify.
var maliciousHostingContexts = []string{
	"spam hosting", "spammer hosting", "bulletproof hosting",
	"botnet hosting", "malware hosting", "abuse hosting",
	"criminal hosting", "hosting malicious",
}

// Classify applies the Appendix-A keyword process to one record's text.
func Classify(text string) Classification {
	lower := strings.ToLower(text)
	var cl Classification
	add := func(c Category) {
		if !cl.Has(c) {
			cl.Categories = append(cl.Categories, c)
		}
	}

	if strings.Contains(lower, "hijack") || strings.Contains(lower, "stolen") {
		add(Hijacked)
	}
	if strings.Contains(lower, "snowshoe") {
		add(Snowshoe)
	}
	if strings.Contains(lower, "known spam operation") ||
		strings.Contains(lower, "register of known spam operations") {
		add(KnownSpam)
	}
	if strings.Contains(lower, "unallocated") || strings.Contains(lower, "bogon") {
		add(Unallocated)
	}
	if strings.Contains(lower, "hosting") {
		matched := false
		for _, ctx := range maliciousHostingContexts {
			if strings.Contains(lower, ctx) {
				add(MaliciousHosting)
				matched = true
				break
			}
		}
		if !matched && len(cl.Categories) == 0 {
			// 'hosting' in a non-malicious context and nothing else
			// matched: defer to manual review.
			cl.NeedsReview = true
		}
	}
	if len(cl.Categories) == 0 {
		cl.NeedsReview = true
	}

	sort.Slice(cl.Categories, func(i, j int) bool { return cl.Categories[i] < cl.Categories[j] })
	cl.ASNs = ExtractASNs(text)
	return cl
}

// ExtractASNs returns the distinct AS numbers written as "AS12345" in
// the text, in order of first appearance.
func ExtractASNs(text string) []bgp.ASN {
	var out []bgp.ASN
	seen := make(map[bgp.ASN]bool)
	for i := 0; i+2 < len(text); i++ {
		if (text[i] != 'A' && text[i] != 'a') || (text[i+1] != 'S' && text[i+1] != 's') {
			continue
		}
		// Must not be inside a word ("ALIAS1" should not match).
		if i > 0 && isWordByte(text[i-1]) {
			continue
		}
		j := i + 2
		var v uint64
		for j < len(text) && text[j] >= '0' && text[j] <= '9' {
			v = v*10 + uint64(text[j]-'0')
			if v > 0xFFFFFFFF {
				v = 0xFFFFFFFF + 1
				break
			}
			j++
		}
		if j == i+2 || v > 0xFFFFFFFF {
			continue
		}
		asn := bgp.ASN(v)
		if !seen[asn] {
			seen[asn] = true
			out = append(out, asn)
		}
		i = j - 1
	}
	return out
}

func isWordByte(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9' || b == '_'
}

// DB is an in-memory SBL record store keyed by record ID.
type DB struct {
	records map[string]Record
}

// NewDB returns an empty record store.
func NewDB() *DB { return &DB{records: make(map[string]Record)} }

// Put stores (or replaces) a record.
func (db *DB) Put(rec Record) { db.records[rec.ID] = rec }

// Get returns the record with the given ID.
func (db *DB) Get(id string) (Record, bool) {
	r, ok := db.records[id]
	return r, ok
}

// Delete removes a record, modeling Spamhaus removing the SBL entry
// after remediation (the paper's "No SBL Record" category).
func (db *DB) Delete(id string) { delete(db.records, id) }

// Len returns the number of stored records.
func (db *DB) Len() int { return len(db.records) }

// ClassifyRef classifies the record with the given ID. A missing or
// empty reference yields the NoRecord category.
func (db *DB) ClassifyRef(id string) Classification {
	if id == "" {
		return Classification{Categories: []Category{NoRecord}}
	}
	rec, ok := db.Get(id)
	if !ok {
		return Classification{Categories: []Category{NoRecord}}
	}
	return Classify(rec.Text)
}

// IDs returns the stored record IDs in sorted order.
func (db *DB) IDs() []string {
	out := make([]string, 0, len(db.records))
	for id := range db.records {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// WriteStore serializes the database in the flat store format the
// archive layer persists: an "@<ID>" header line, then the record text
// until the next header. Records are emitted in sorted ID order.
func WriteStore(w io.Writer, db *DB) error {
	bw := bufio.NewWriter(w)
	for _, id := range db.IDs() {
		rec, _ := db.Get(id)
		if _, err := fmt.Fprintf(bw, "@%s\n%s\n", rec.ID, rec.Text); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseStore reads the format WriteStore emits into db. Text before the
// first "@" header belongs to no record and is dropped; use
// ParseStoreHealth to have such lines counted.
func ParseStore(r io.Reader, db *DB) error {
	return parseStore(r, db, nil)
}

// ParseStoreHealth is the accounting variant of ParseStore: stored
// records are counted on src, and orphan lines preceding the first
// record header are counted as skipped. A nil src counts nothing, as
// ParseStore does.
func ParseStoreHealth(r io.Reader, db *DB, src *ingest.Source) error {
	return parseStore(r, db, src)
}

func parseStore(r io.Reader, db *DB, src *ingest.Source) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	var id string
	var text []string
	flush := func() {
		if id != "" {
			db.Put(Record{ID: id, Text: strings.Join(text, "\n")})
			if src != nil {
				src.Accept(1)
			}
		}
	}
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "@") {
			flush()
			id = line[1:]
			text = text[:0]
			continue
		}
		if id == "" {
			// Orphan text before any record header.
			if src != nil && strings.TrimSpace(line) != "" {
				src.Skip(ingest.BadLine)
			}
			continue
		}
		text = append(text, line)
	}
	flush()
	return sc.Err()
}
