// Package ingest tracks the health of the data-loading layer: how many
// records each input source contributed, how many were skipped and why,
// and which sources were quarantined outright. The paper's pipeline runs
// over 33 months of real-world archives where truncated dumps and corrupt
// records are routine; rather than dying on the first bad byte, the
// lenient ingest paths count and classify every skip here so a study can
// complete over damaged inputs and report exactly what it did not see.
//
// A Source is the per-stream accumulator (one MRT collector file, one
// DROP snapshot, one delegated-extended file, ...). A Health groups the
// sources of one study. Counter updates on a Source must come from a
// single goroutine — the loaders give each concurrent worker its own
// Source — while Health's registry is internally locked, so any number
// of workers may look their source up concurrently. Report flattens the
// whole Health into a deterministic, JSON-friendly snapshot.
package ingest

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Reason classifies why one record or line was skipped.
type Reason uint8

// Skip reasons. Truncated marks a record cut off by end of stream;
// Corrupt marks a record whose framing or body failed to decode;
// Unsupported marks a well-framed record of a type the pipeline does not
// carry; BadLine marks an unparseable line of a text format.
const (
	Truncated Reason = iota
	Corrupt
	Unsupported
	BadLine
	numReasons
)

// Reasons lists every skip reason in rendering order.
func Reasons() []Reason { return []Reason{Truncated, Corrupt, Unsupported, BadLine} }

// String names the reason as it appears in reports.
func (r Reason) String() string {
	switch r {
	case Truncated:
		return "truncated"
	case Corrupt:
		return "corrupt"
	case Unsupported:
		return "unsupported"
	case BadLine:
		return "bad-line"
	}
	return "unknown"
}

// Counters holds per-reason skip counts.
type Counters [numReasons]uint64

// Add counts one skip for the reason.
func (c *Counters) Add(r Reason) { c[r]++ }

// Total sums the counts across all reasons.
func (c Counters) Total() uint64 {
	var n uint64
	for _, v := range c {
		n += v
	}
	return n
}

// Merge folds o into c.
func (c *Counters) Merge(o Counters) {
	for i, v := range o {
		c[i] += v
	}
}

// String renders the non-zero counts as "truncated=2 corrupt=5".
func (c Counters) String() string {
	var parts []string
	for _, r := range Reasons() {
		if c[r] > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", r, c[r]))
		}
	}
	return strings.Join(parts, " ")
}

// Source accumulates the health of one input stream. Records counts the
// records (or lines) that decoded; Skips counts what was dropped at any
// stage, so a record that decoded but could not be applied appears in
// both. Not safe for concurrent use — each loading goroutine owns its
// Source exclusively.
type Source struct {
	Name        string
	Records     uint64
	Skips       Counters
	Quarantined bool
	Note        string // quarantine reason, empty otherwise

	// ReloadRetries counts the failed generation-reload attempts the
	// query daemon's supervisor retried, under backoff, before the load
	// this source reports on succeeded.
	ReloadRetries uint64
}

// Accept counts n records as successfully ingested.
func (s *Source) Accept(n uint64) { s.Records += n }

// Skip counts one skipped record with its reason.
func (s *Source) Skip(r Reason) { s.Skips.Add(r) }

// Skipped returns the total skips across all reasons.
func (s *Source) Skipped() uint64 { return s.Skips.Total() }

// Coverage returns the fraction of observed records that were ingested:
// Records / (Records + Skipped), and 1 for an untouched source.
func (s *Source) Coverage() float64 {
	total := s.Records + s.Skipped()
	if total == 0 {
		return 1
	}
	return float64(s.Records) / float64(total)
}

// CountReloadRetry counts one failed, retried reload attempt.
func (s *Source) CountReloadRetry() { s.ReloadRetries++ }

// Quarantine marks the whole source as dropped from the study.
func (s *Source) Quarantine(note string) {
	s.Quarantined = true
	s.Note = note
}

// Clean reports whether the source ingested without skips or quarantine.
func (s *Source) Clean() bool { return s.Skipped() == 0 && !s.Quarantined }

// Health is the per-study accumulator: a registry of named sources.
// Source lookup is internally locked so concurrent loaders may each
// claim their own source; the counters inside a Source are not locked.
type Health struct {
	mu      sync.Mutex
	sources map[string]*Source
}

// NewHealth returns an empty accumulator.
func NewHealth() *Health {
	return &Health{sources: make(map[string]*Source)}
}

// Source returns the named source, creating it on first use. Safe for
// concurrent callers; the returned Source itself is single-goroutine.
// A nil Health is a strict load: it returns nil, which every parser
// reads as "fail on the first bad record".
func (h *Health) Source(name string) *Source {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.sources[name]
	if !ok {
		s = &Source{Name: name}
		h.sources[name] = s
	}
	return s
}

// Sources returns every registered source sorted by name.
func (h *Health) Sources() []*Source {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*Source, 0, len(h.sources))
	for _, s := range h.sources {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Report flattens the accumulator into a deterministic snapshot. Call it
// only after every loader has finished writing its sources.
func (h *Health) Report() Report {
	var r Report
	for _, s := range h.Sources() {
		r.TotalRecords += s.Records
		r.TotalSkipped += s.Skipped()
		if s.Quarantined {
			r.Quarantined = append(r.Quarantined, s.Name)
		}
		sr := SourceReport{
			Name:          s.Name,
			Records:       s.Records,
			Skips:         s.Skips,
			Coverage:      s.Coverage(),
			Quarantined:   s.Quarantined,
			Note:          s.Note,
			ReloadRetries: s.ReloadRetries,
		}
		r.Sources = append(r.Sources, sr)
	}
	return r
}

// Report is a flattened Health snapshot: sources in name order, totals,
// and the quarantine list. The zero Report is Clean.
type Report struct {
	Sources      []SourceReport `json:"sources,omitempty"`
	TotalRecords uint64         `json:"total_records"`
	TotalSkipped uint64         `json:"total_skipped"`
	Quarantined  []string       `json:"quarantined,omitempty"`
}

// SourceReport is one source's flattened state.
type SourceReport struct {
	Name          string   `json:"name"`
	Records       uint64   `json:"records"`
	Skips         Counters `json:"skips"`
	Coverage      float64  `json:"coverage"`
	Quarantined   bool     `json:"quarantined,omitempty"`
	Note          string   `json:"note,omitempty"`
	ReloadRetries uint64   `json:"reload_retries,omitempty"`
}

// Clean reports whether nothing was skipped and nothing quarantined —
// the report of a study over undamaged inputs.
func (r Report) Clean() bool {
	return r.TotalSkipped == 0 && len(r.Quarantined) == 0
}

// Options selects the ingest mode of a file-based load.
type Options struct {
	// Strict restores fail-fast loading: the first malformed byte of any
	// input aborts with a record-index and byte-offset error.
	Strict bool
	// MaxSkip is the per-collector skipped-record budget in lenient mode:
	// a collector whose stream skips more than MaxSkip records is
	// quarantined and the study proceeds on the survivors.
	MaxSkip int
}

// DefaultMaxSkip is the per-collector skip budget lenient loads use when
// the caller does not choose one.
const DefaultMaxSkip = 100
