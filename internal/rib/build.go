package rib

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"dropscope/internal/ingest"
	"dropscope/internal/mrt"
	"dropscope/internal/timex"
)

// Stream is one named collector's record stream for Build. Open runs
// once, on the goroutine that reassembles the collector, with the
// collector's health source in a lenient build (nil in a strict one),
// on which a decoding source counts its records and decode-stage skips.
// A source that is also an io.Closer is closed after the load.
type Stream struct {
	Name string
	Open func(src *ingest.Source) (RecordSource, error)
}

// Streams adapts in-memory record streams, keyed by collector name. In
// a lenient build every record counts as accepted: nothing was decoded.
func Streams(m map[string][]mrt.Record) []Stream {
	out := make([]Stream, 0, len(m))
	for name, recs := range m {
		out = append(out, Stream{Name: name, Open: func(src *ingest.Source) (RecordSource, error) {
			if src != nil {
				src.Accept(uint64(len(recs)))
			}
			return &records{recs: recs}, nil
		}})
	}
	return out
}

// records is a RecordSource over a record slice.
type records struct {
	recs []mrt.Record
	i    int
}

func (r *records) Next() (mrt.Record, error) {
	if r.i >= len(r.recs) {
		return nil, io.EOF
	}
	r.i++
	return r.recs[r.i-1], nil
}

// Build reassembles every stream into its CollectorRIB on a pool of
// workers (<= 0 means runtime.GOMAXPROCS(0); 1 runs on the calling
// goroutine), merges them in name order and closes the index at end.
// Whatever the pool, the index is the one serial loading in name order
// builds.
//
// A nil h builds strictly. The error is then the first stream's, in name
// order, that fails to open or decode — even past a record that could
// not be applied — and only failing that, the first stream's whose
// records cannot be applied. Stream errors are returned as the stream
// reported them.
//
// A non-nil h builds leniently: each collector's unappliable records
// are skipped and counted on h's "mrt/<name>" source, and a collector
// whose skips exceed maxSkip (0 means ingest.DefaultMaxSkip, negative
// unlimited) is quarantined — left out of the merge — while the build
// proceeds with the rest. Decode-stage skips alone over the budget
// quarantine the collector with only those counted; apply-stage skips
// are added once decoding stayed within it. Each decision depends only
// on the collector's own stream, so the pool cannot change the outcome.
func Build(streams []Stream, end timex.Day, workers int, h *ingest.Health, maxSkip int) (*Index, error) {
	streams = slices.Clone(streams)
	slices.SortFunc(streams, func(a, b Stream) int { return strings.Compare(a.Name, b.Name) })
	if maxSkip == 0 {
		maxSkip = ingest.DefaultMaxSkip
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	res := make([]built, len(streams))
	var next atomic.Int64 // next unclaimed stream
	work := func() {
		for i := int(next.Add(1)) - 1; i < len(streams); i = int(next.Add(1)) - 1 {
			res[i] = build(streams[i], h, maxSkip)
		}
	}
	if workers = min(workers, len(streams)); workers <= 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}

	if i := slices.IndexFunc(res, func(r built) bool { return r.streamErr }); i >= 0 {
		return nil, res[i].err
	}
	ix := NewIndex()
	for _, r := range res {
		if r.err != nil {
			return nil, r.err
		}
		if r.rib != nil { // nil: quarantined
			_ = ix.Merge(r.rib) // fails only on a closed index
		}
	}
	ix.Close(end)
	return ix, nil
}

// built is one stream's outcome.
type built struct {
	rib       *CollectorRIB
	err       error
	streamErr bool // err is the stream's own: it failed to open or decode
}

func build(s Stream, h *ingest.Health, maxSkip int) built {
	src := h.Source("mrt/" + s.Name)
	rs, err := s.Open(src)
	if err != nil {
		return built{err: err, streamErr: true}
	}
	if c, ok := rs.(io.Closer); ok {
		defer c.Close()
	}
	if src == nil {
		w := &watched{RecordSource: rs}
		c, err := LoadCollector(s.Name, w, nil)
		if err != nil {
			// A decode error further down still outranks this one.
			for w.err == nil {
				if _, next := w.Next(); next == io.EOF {
					break
				}
			}
		}
		if w.err != nil {
			return built{err: w.err, streamErr: true}
		}
		return built{rib: c, err: err}
	}

	// A lenient stream fails only to open or, with a skip bound, decode;
	// its unappliable records are counted aside until decoding is done.
	var applied ingest.Source
	c, err := LoadCollector(s.Name, rs, &applied)
	if err != nil {
		return built{err: err, streamErr: true}
	}
	over := func() bool { return maxSkip >= 0 && src.Skipped() > uint64(maxSkip) }
	if !over() {
		src.Skips.Merge(applied.Skips)
	}
	if over() {
		src.Quarantine(fmt.Sprintf("%d skips exceed budget %d", src.Skipped(), maxSkip))
		return built{}
	}
	return built{rib: c}
}

// watched remembers the error its stream failed with, telling a record
// that does not decode from one that decoded but cannot be applied.
type watched struct {
	RecordSource
	err error
}

func (w *watched) Next() (mrt.Record, error) {
	rec, err := w.RecordSource.Next()
	if err != nil && err != io.EOF {
		w.err = err
	}
	return rec, err
}
