package serve

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"dropscope/internal/archive"
	"dropscope/internal/bgp"
	"dropscope/internal/netx"
	"dropscope/internal/scenario"
	"dropscope/internal/timex"
)

// worldRoot holds the per-seed cached archive directories for the whole
// test run; TestMain removes it.
var (
	worldRoot string
	worldMu   sync.Mutex
	worldDirs = map[int64]string{}
)

func TestMain(m *testing.M) {
	var err error
	worldRoot, err = os.MkdirTemp("", "servetest")
	if err != nil {
		panic(err)
	}
	code := m.Run()
	os.RemoveAll(worldRoot)
	os.Exit(code)
}

// writeWorld generates a small deterministic world and persists its
// archives, returning the directory and study window. Worlds are cached
// by seed across tests: generation and archive encoding dominate the
// suite's wall clock otherwise.
func writeWorld(t testing.TB, seed int64) (string, timex.Range) {
	t.Helper()
	p := scenario.DefaultParams()
	p.Seed = seed
	p.Scale = 1024
	worldMu.Lock()
	defer worldMu.Unlock()
	if dir, ok := worldDirs[seed]; ok {
		return dir, p.Window
	}
	w, err := scenario.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(worldRoot, fmt.Sprintf("seed%d", seed))
	err = archive.Write(dir, &archive.Bundle{
		MRT: w.MRT, DROP: w.DROP, SBL: w.SBL,
		IRR: w.IRR, RPKI: w.RPKI, RIR: w.RIR,
	})
	if err != nil {
		t.Fatal(err)
	}
	worldDirs[seed] = dir
	return dir, p.Window
}

var (
	genOnce   sync.Once
	cachedGen *Generation
	cachedErr error
)

// loadGen loads one shared read-only generation for the differential
// tests (a cold build without snapshot persistence).
func loadGen(t testing.TB) *Generation {
	t.Helper()
	genOnce.Do(func() {
		dir, window := writeWorld(t, 1)
		cachedGen, cachedErr = Load(dir, LoadOptions{Window: window})
	})
	if cachedErr != nil {
		t.Fatal(cachedErr)
	}
	return cachedGen
}

// samples is the generation's address-ordered prefix universe, the pool
// the tests draw request prefixes from.
func samples(g *Generation) []netx.Prefix { return g.pipe.Index.Prefixes() }

// escapePrefix percent-encodes a prefix for a query value, so the
// requests also exercise the server's unescaper.
func escapePrefix(p netx.Prefix) string { return url.QueryEscape(p.String()) }

// sampleDays spreads k probe days across the window, including both
// edges.
func sampleDays(w timex.Range, k int) []timex.Day {
	days := []timex.Day{w.First, w.Last}
	for i := 1; i < k; i++ {
		days = append(days, w.First+timex.Day(i*w.Days()/k))
	}
	return days
}

// TestVisibilityMatchesIndex pins /v1/visibility to the index queries.
func TestVisibilityMatchesIndex(t *testing.T) {
	g := loadGen(t)
	days := sampleDays(g.window, 5)
	for i, p := range samples(g) {
		if i%13 != 0 {
			continue
		}
		for _, d := range days {
			vis, peers := g.Visibility(p, d)
			if peers != g.pipe.Index.NumPeers() {
				t.Fatalf("peer total %d != %d", peers, g.pipe.Index.NumPeers())
			}
			wantFrac := g.pipe.Index.VisibleFraction(p, d)
			frac := 0.0
			if peers > 0 {
				frac = float64(vis) / float64(peers)
			}
			if frac != wantFrac {
				t.Fatalf("VisibleFraction(%s, %s) = %v via count, index says %v", p, d, frac, wantFrac)
			}
			if (vis > 0) != g.pipe.Index.Observed(p, d) {
				t.Fatalf("Observed(%s, %s) disagrees", p, d)
			}
		}
	}
}

type visResp struct {
	Prefix       string  `json:"prefix"`
	Day          string  `json:"day"`
	PeersVisible int     `json:"peers_visible"`
	PeersTotal   int     `json:"peers_total"`
	Fraction     float64 `json:"visible_fraction"`
	Observed     bool    `json:"observed"`
	Generation   string  `json:"generation"`
}

// get drives one request through ServeHTTP and returns the recorder.
func get(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
	return w
}

// TestEndpointsOverHTTP exercises every endpoint end to end: status,
// JSON shape, the generation digest in body and header.
func TestEndpointsOverHTTP(t *testing.T) {
	g := loadGen(t)
	s := New(g)
	ps := samples(g)
	p := ps[len(ps)/2]
	day := g.window.First + timex.Day(g.window.Days()/2)

	w := get(t, s, "/v1/visibility?prefix="+escapePrefix(p)+"&day="+day.String())
	if w.Code != 200 {
		t.Fatalf("visibility status %d: %s", w.Code, w.Body.String())
	}
	var vr visResp
	if err := json.Unmarshal(w.Body.Bytes(), &vr); err != nil {
		t.Fatalf("visibility: %v", err)
	}
	if vr.Prefix != p.String() || vr.Day != day.String() || vr.Generation != g.DigestHex() {
		t.Fatalf("visibility echo mismatch: %+v", vr)
	}
	if got := w.Header().Get("X-Dropscope-Generation"); got != g.DigestHex() {
		t.Fatalf("generation header %q", got)
	}
	if vr.PeersTotal != g.pipe.Index.NumPeers() {
		t.Fatalf("peers_total %d", vr.PeersTotal)
	}

	w = get(t, s, "/v1/rov?prefix="+escapePrefix(p)+"&day="+day.String()+"&origin=64500")
	if w.Code != 200 {
		t.Fatalf("rov status %d: %s", w.Code, w.Body.String())
	}
	var rr struct {
		Validity   string `json:"validity"`
		Origin     uint32 `json:"origin"`
		Generation string `json:"generation"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &rr); err != nil {
		t.Fatal(err)
	}
	if want := g.ROV(p, 64500, day, false).String(); rr.Validity != want {
		t.Fatalf("rov validity %q, want %q", rr.Validity, want)
	}
	if rr.Origin != 64500 || rr.Generation != g.DigestHex() {
		t.Fatalf("rov echo mismatch: %+v", rr)
	}

	w = get(t, s, "/v1/drop?prefix="+escapePrefix(p)+"&day="+day.String())
	if w.Code != 200 {
		t.Fatalf("drop status %d", w.Code)
	}
	var dr struct {
		Listed     bool   `json:"listed"`
		Generation string `json:"generation"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Listed != g.DropListed(p, day) || dr.Generation != g.DigestHex() {
		t.Fatalf("drop echo mismatch: %+v", dr)
	}

	w = get(t, s, "/v1/origins?prefix="+escapePrefix(p))
	if w.Code != 200 {
		t.Fatalf("origins status %d", w.Code)
	}
	var or struct {
		Spans []struct {
			From    string `json:"from"`
			To      string `json:"to"`
			Origin  uint32 `json:"origin"`
			Transit uint32 `json:"transit"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &or); err != nil {
		t.Fatal(err)
	}
	spans := g.pipe.Index.OriginTimeline(p)
	if len(or.Spans) != len(spans) {
		t.Fatalf("origins: %d spans, want %d", len(or.Spans), len(spans))
	}
	for i, sp := range spans {
		got := or.Spans[i]
		if got.From != sp.From.String() || got.To != sp.To.String() ||
			bgp.ASN(got.Origin) != sp.Origin || bgp.ASN(got.Transit) != sp.Transit {
			t.Fatalf("origins span %d: %+v vs %+v", i, got, sp)
		}
	}

	w = get(t, s, "/v1/figures/"+day.String())
	if w.Code != 200 {
		t.Fatalf("figures status %d: %s", w.Code, w.Body.String())
	}
	var fr struct {
		Day         string  `json:"day"`
		RoutedAddrs uint64  `json:"routed_addrs"`
		Slash8      float64 `json:"routed_slash8"`
		MOAS        int     `json:"moas_conflicts"`
		DropListed  int     `json:"drop_listed"`
		ROAsLive    int     `json:"roas_live"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &fr); err != nil {
		t.Fatal(err)
	}
	f := g.pipe.FigureDay(day)
	if fr.Day != day.String() || fr.RoutedAddrs != f.RoutedAddrs || fr.Slash8 != f.RoutedSlash8 ||
		fr.MOAS != f.MOASConflicts || fr.DropListed != f.DROPListed || fr.ROAsLive != f.ROAsLive {
		t.Fatalf("figures mismatch: %+v vs %+v", fr, f)
	}

	w = get(t, s, "/healthz")
	if w.Code != 200 {
		t.Fatalf("healthz status %d", w.Code)
	}
	var hr struct {
		Status     string `json:"status"`
		Prefixes   int    `json:"prefixes"`
		Generation string `json:"generation"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "ok" || hr.Prefixes != len(samples(g)) || hr.Generation != g.DigestHex() {
		t.Fatalf("healthz mismatch: %+v", hr)
	}

	w = get(t, s, "/metrics")
	if w.Code != 200 {
		t.Fatalf("metrics status %d", w.Code)
	}
	var mr struct {
		Requests map[string]uint64 `json:"requests"`
		Total    uint64            `json:"requests_total"`
		Ingest   json.RawMessage   `json:"ingest"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Requests["visibility"] != 1 || mr.Requests["metrics"] != 1 {
		t.Fatalf("metrics counters: %+v", mr.Requests)
	}
	if len(mr.Ingest) == 0 || string(mr.Ingest) == "null" {
		t.Fatal("metrics: no ingest report")
	}
}

// TestROVDerivedOrigin checks the origin-less rov path uses the
// plurality observed origin.
func TestROVDerivedOrigin(t *testing.T) {
	g := loadGen(t)
	s := New(g)
	day := g.window.Last
	var probed bool
	for _, p := range samples(g) {
		origin, ok := g.pipe.Index.OriginAt(p, day)
		if !ok {
			continue
		}
		w := get(t, s, "/v1/rov?prefix="+escapePrefix(p))
		if w.Code != 200 {
			t.Fatalf("rov status %d", w.Code)
		}
		var rr struct {
			Origin   uint32 `json:"origin"`
			Validity string `json:"validity"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &rr); err != nil {
			t.Fatal(err)
		}
		if bgp.ASN(rr.Origin) != origin {
			t.Fatalf("derived origin %d, want %d", rr.Origin, origin)
		}
		if want := g.ROV(p, origin, day, false).String(); rr.Validity != want {
			t.Fatalf("validity %q, want %q", rr.Validity, want)
		}
		probed = true
		break
	}
	if !probed {
		t.Fatal("no observed prefix to probe")
	}
}

// TestErrorStatuses locks in the failure-path contract, and where it
// ends: the accepted edge cases answer 200.
func TestErrorStatuses(t *testing.T) {
	g := loadGen(t)
	s := New(g)
	cases := []struct {
		path string
		code int
	}{
		{"/v1/visibility", 400},                                     // missing prefix
		{"/v1/visibility?prefix=bogus", 400},                        // malformed prefix
		{"/v1/visibility?prefix=10.0.0.1%2F24", 400},                // host bits set
		{"/v1/visibility?prefix=10.0.0.0%2F24&day=x", 400},          // malformed day
		{"/v1/visibility?prefix=10.0.0.0%2F24&day=2019-02-30", 400}, // nonsense date
		{"/v1/rov?prefix=198.51.100.0%2F24&origin=zz", 400},         // malformed origin
		{"/v1/rov?prefix=198.51.100.0%2F24", 404},                   // unobserved, no origin
		{"/v1/figures/not-a-day", 400},
		{"/v1/figures/1999-01-01", 404}, // outside the window
		{"/v1/nope", 404},
		// The edges of what the prefix, day, AS number and bool parsers
		// accept, with the statuses the daemon has always given them.
		{"/v1/visibility?prefix=10.0.0.0%2F%2B24", 400}, // signed length
		{"/v1/visibility?prefix=10.0.0.0%2F-0", 400},
		{"/v1/visibility?prefix=10.0.0.0%2F+24", 400}, // '+' decodes to a space
		{"/v1/visibility?prefix=10.0.0.0%2F33", 400},
		{"/v1/visibility?prefix=10.0.0.0%2F", 400},
		{"/v1/visibility?prefix=10.0.0%2F8", 400},
		{"/v1/visibility?prefix=256.0.0.0%2F8", 400},
		{"/v1/visibility?prefix=%2B10.0.0.0%2F8", 400},
		{"/v1/visibility?prefix=10.0.0.0%2F8%2F8", 400},
		{"/v1/visibility?prefix=10.0.0.0%2F99999999999999999999999", 400},
		{"/v1/visibility?prefix=", 400},
		{"/v1/visibility?prefix=10.0.0.0%2F024", 200}, // leading zeros
		{"/v1/visibility?prefix=010.000.0.0%2F8", 200},
		{"/v1/visibility?prefix=10.0.0.0/8", 200}, // unescaped slash
		{"/v1/drop?prefix=10.0.0.0%2F8&day=2021-02-29", 400},
		{"/v1/drop?prefix=10.0.0.0%2F8&day=20210230", 400},
		{"/v1/drop?prefix=10.0.0.0%2F8&day=2021-13-01", 400},
		{"/v1/drop?prefix=10.0.0.0%2F8&day=2021-00-10", 400},
		{"/v1/drop?prefix=10.0.0.0%2F8&day=2021-02-00", 400},
		{"/v1/drop?prefix=10.0.0.0%2F8&day=2021-1-01", 400},
		{"/v1/drop?prefix=10.0.0.0%2F8&day=%2B021-01-01", 400},
		{"/v1/drop?prefix=10.0.0.0%2F8&day=-021-01-01", 400},
		{"/v1/drop?prefix=10.0.0.0%2F8&day=2021%2F01%2F01", 400},
		{"/v1/drop?prefix=10.0.0.0%2F8&day=99999999", 400},
		{"/v1/drop?prefix=10.0.0.0%2F8&day=", 400},
		{"/v1/drop?prefix=10.0.0.0%2F8&day=2020-02-29", 200}, // leap day
		{"/v1/drop?prefix=10.0.0.0%2F8&day=20200229", 200},
		{"/v1/drop?prefix=10.0.0.0%2F8&day=0000-01-01", 200},
		{"/v1/rov?prefix=10.0.0.0%2F8&origin=AS4294967296", 400},
		{"/v1/rov?prefix=10.0.0.0%2F8&origin=99999999999999999999", 400},
		{"/v1/rov?prefix=10.0.0.0%2F8&origin=ASX", 400},
		{"/v1/rov?prefix=10.0.0.0%2F8&origin=AS", 400},
		{"/v1/rov?prefix=10.0.0.0%2F8&origin=ASAS5", 400},
		{"/v1/rov?prefix=10.0.0.0%2F8&origin=AS+5", 400},
		{"/v1/rov?prefix=10.0.0.0%2F8&origin=%2B5", 400},
		{"/v1/rov?prefix=10.0.0.0%2F8&origin=-1", 400},
		{"/v1/rov?prefix=10.0.0.0%2F8&origin=12a", 400},
		{"/v1/rov?prefix=10.0.0.0%2F8&origin=", 400},
		{"/v1/rov?prefix=10.0.0.0%2F8&origin=as0", 200},
		{"/v1/rov?prefix=10.0.0.0%2F8&origin=aS12", 200},
		{"/v1/rov?prefix=10.0.0.0%2F8&origin=0012", 200},
		{"/v1/rov?prefix=10.0.0.0%2F8&origin=AS4294967295", 200},
		{"/v1/rov?prefix=10.0.0.0%2F8&origin=5&as0=yes", 400},
		{"/v1/rov?prefix=10.0.0.0%2F8&origin=5&as0=TRUE", 400},
		{"/v1/rov?prefix=10.0.0.0%2F8&origin=5&as0=%zz", 400},
		{"/v1/rov?prefix=10.0.0.0%2F8&origin=5&as0=", 200},
		{"/v1/figures/2021-02-29", 400},
		{"/v1/figures/20210230", 400},
		{"/v1/figures/2019-6-05", 400},
		{"/v1/figures/%2B019-06-05", 400},
		{"/v1/figures/", 400},
		{"/v1/figures/20190605", 200},
	}
	for _, c := range cases {
		w := get(t, s, c.path)
		if w.Code != c.code {
			t.Errorf("GET %s = %d, want %d (%s)", c.path, w.Code, c.code, w.Body.String())
		}
		if c.code == 200 {
			continue
		}
		var er struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Error == "" {
			t.Errorf("GET %s: error body %q not JSON", c.path, w.Body.String())
		}
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest("POST", "/v1/visibility", nil))
	if w.Code != 405 {
		t.Errorf("POST = %d, want 405", w.Code)
	}
	empty := New(nil)
	if w := get(t, empty, "/healthz"); w.Code != 503 {
		t.Errorf("no generation: %d, want 503", w.Code)
	}
}
