package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/url"
	"reflect"
	"runtime"
	"testing"
)

// nullWriter is a reusable non-allocating http.ResponseWriter: the
// header map persists across requests (so the in-place setHeader path
// engages) and writes are counted, not stored. It isolates the
// handlers' own allocation behavior from net/http's connection
// plumbing, which the zero-alloc guarantee explicitly excludes.
type nullWriter struct {
	header  http.Header
	status  int
	written int
}

func (w *nullWriter) Header() http.Header { return w.header }
func (w *nullWriter) WriteHeader(c int)   { w.status = c }
func (w *nullWriter) Write(b []byte) (int, error) {
	w.written += len(b)
	return len(b), nil
}

// TestPointHandlerAllocs is the PR 6 allocation gate: the steady-state
// point-query handlers — visibility, rov with explicit origin, drop —
// must run ServeHTTP end to end (routing, parsing, query, encoding)
// without a single heap allocation. Since PR 7 the requests run through
// the full robustness middleware (panic recovery, drain check, the
// admission gate), so the gate's uncontended fast path is pinned
// allocation-free too. Skipped under -race like the other allocation
// guards: instrumentation perturbs the counts.
func TestPointHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	g := loadGen(t)
	s := Wrap(New(g), MiddlewareConfig{})
	ps := samples(g)
	p := escapePrefix(ps[len(ps)/2])
	day := g.window.Last.String()

	cases := []struct {
		name string
		path string
	}{
		{"visibility", "/v1/visibility?prefix=" + p + "&day=" + day},
		{"rov", "/v1/rov?prefix=" + p + "&day=" + day + "&origin=64500&as0=1"},
		{"drop", "/v1/drop?prefix=" + p + "&day=" + day},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			u, err := url.Parse(c.path)
			if err != nil {
				t.Fatal(err)
			}
			// One long-lived request and writer, as a keep-alive
			// connection's handler sees them.
			req := &http.Request{Method: http.MethodGet, URL: u}
			w := &nullWriter{header: make(http.Header)}
			avg := testing.AllocsPerRun(200, func() {
				w.written = 0
				s.ServeHTTP(w, req)
				if w.written == 0 {
					t.Fatal("handler wrote nothing")
				}
			})
			if avg != 0 {
				t.Errorf("%s: %v allocs/op, want 0", c.name, avg)
			}
		})
	}
}

// TestMetricsEncodesIngestOnce: a scrape carries the generation's
// ingest report byte for byte as a json.Marshal of it at scrape time
// would, but the report is encoded once per generation, so a scrape
// allocates next to nothing.
func TestMetricsEncodesIngestOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	g := loadGen(t)
	s := New(g)
	want, err := json.Marshal(g.Pipeline().HealthReport())
	if err != nil {
		t.Fatal(err)
	}
	var mr struct {
		Ingest json.RawMessage `json:"ingest"`
	}
	for i := 0; i < 2; i++ {
		if err := json.Unmarshal(get(t, s, "/metrics").Body.Bytes(), &mr); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mr.Ingest, want) {
			t.Fatalf("scrape %d: ingest report differs from its marshal", i)
		}
	}
	marshal := testing.AllocsPerRun(10, func() { json.Marshal(g.Pipeline().HealthReport()) })
	req := &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/metrics"}}
	w := &nullWriter{header: make(http.Header)}
	scrape := testing.AllocsPerRun(10, func() { s.ServeHTTP(w, req) })
	if scrape >= 1 {
		t.Errorf("a scrape makes %v allocations, want none (a marshal of the report alone makes %v)", scrape, marshal)
	}
}

// TestFiguresEncodedOnce: a figures day is computed and encoded on its
// first request; a repeat writes the same bytes without allocating, and
// both spellings of the day share one answer.
func TestFiguresEncodedOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	g := loadGen(t)
	s := New(g)
	first := get(t, s, "/v1/figures/2019-06-05")
	if first.Code != 200 {
		t.Fatalf("status %d: %s", first.Code, first.Body.String())
	}
	for _, path := range []string{"/v1/figures/2019-06-05", "/v1/figures/20190605"} {
		if again := get(t, s, path).Body.Bytes(); !bytes.Equal(again, first.Body.Bytes()) {
			t.Fatalf("%s: %s, first answer %s", path, again, first.Body.Bytes())
		}
	}
	req := &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/v1/figures/2019-06-05"}}
	w := &nullWriter{header: make(http.Header)}
	if avg := testing.AllocsPerRun(100, func() { s.ServeHTTP(w, req) }); avg != 0 {
		t.Errorf("a repeat figures request makes %v allocations, want 0", avg)
	}
}

// queryCacheLen counts the per-day sweeps the pipeline's query cache
// memoizes. The cache is unexported, and only its size matters here.
func queryCacheLen(g *Generation) (routed, moas int) {
	c := reflect.ValueOf(g.Pipeline()).Elem().FieldByName("cache")
	return c.FieldByName("routed").Len(), c.FieldByName("moas").Len()
}

// TestFiguresCrawlRetainsLittle: a client asking for every window day
// leaves the generation holding each day's encoded answer and nothing
// of the sweeps behind it — no query cache entry, and well under a
// kilobyte of heap per day.
func TestFiguresCrawlRetainsLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	dir, window := writeWorld(t, 1)
	g, err := Load(dir, LoadOptions{Window: window})
	if err != nil {
		t.Fatal(err)
	}
	s := New(g)
	w := &nullWriter{header: make(http.Header)}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for d := window.First; d <= window.Last; d++ {
		w.status = http.StatusOK
		s.ServeHTTP(w, &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/v1/figures/" + d.String()}})
		if w.status != http.StatusOK {
			t.Fatalf("day %v: status %d", d, w.status)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if routed, moas := queryCacheLen(g); routed != 0 || moas != 0 {
		t.Errorf("the crawl left %d routed-space and %d MOAS sweeps in the query cache, want none", routed, moas)
	}
	days := int64(window.Days())
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("crawling %d days grew the heap by %d B", days, grown)
	if grown > days<<10 {
		t.Errorf("crawling %d days grew the heap by %d B (%d B per day), want at most 1 KB per day", days, grown, grown/days)
	}
	runtime.KeepAlive(s)
}
