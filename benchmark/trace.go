package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from this package's own
// files around the call: instrumenting the program is a later change.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Run    int    `json:"run"`    // spans of one repetition share it
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; write puts them on disk once, at exit.
// It is used from one goroutine: the traced pass is serial so that a
// span's time belongs to the layer it names.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	run   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// nextRun starts a new repetition.
func (t *tracer) nextRun() { t.run++ }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) time.Duration {
	if n := len(t.stack); n == 0 || t.stack[n-1] != id {
		panic("benchmark: spans closed out of order") // a bug in this package, never input
	}
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].End = int64(time.Since(t.t0))
	return t.spans[id].dur()
}

// do times fn as one span.
func (t *tracer) do(name string, fn func() error) (time.Duration, error) {
	id := t.begin(name)
	err := fn()
	return t.end(id), err
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover (overlapping children are counted
// once).
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// write stores the spans, under the fingerprint of the machine they
// were taken on, as out/trace.json beside the sources.
func (t *tracer) write(benchDir string, fp fingerprint) (string, error) {
	dir := filepath.Join(benchDir, "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b, err := json.Marshal(struct {
		Fingerprint fingerprint `json:"fingerprint"`
		Spans       []span      `json:"spans"`
	}{fp, t.spans})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace.json")
	return path, os.WriteFile(path, b, 0o644)
}
