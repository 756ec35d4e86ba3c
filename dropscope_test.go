package dropscope

import (
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"
)

// The facade test uses a reduced background scale to stay fast; the full
// default world is exercised in internal/analysis.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Scale = 512
	return cfg
}

var cachedStudy *Study

func study(t *testing.T) *Study {
	t.Helper()
	if cachedStudy == nil {
		s, err := NewStudy(smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		cachedStudy = s
	}
	return cachedStudy
}

func TestStudyResults(t *testing.T) {
	s := study(t)
	r := s.Results()
	if r.Fig1.TotalPrefixes != 712 {
		t.Errorf("total prefixes = %d", r.Fig1.TotalPrefixes)
	}
	if len(r.Fig2.FilteringPeers) != 3 {
		t.Errorf("filtering peers = %d", len(r.Fig2.FilteringPeers))
	}
	if len(r.Fig7) == 0 {
		t.Error("no Fig7 samples")
	}
}

func TestRenderProducesEverySection(t *testing.T) {
	s := study(t)
	var b strings.Builder
	if err := s.Results().Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"Figure 1", "Figure 2", "Table 1", "Section 5", "Figure 3",
		"Figure 4", "Figure 5", "Figure 6", "Figure 7", "Table 2",
		"RPKI-VALID HIJACK", "132.255.0.0/22",
		"path-end validation", "serial-hijacker", "MOAS conflicts",
		"maxLength audit", "universal ROV",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q", want)
		}
	}
	if len(out) < 2000 {
		t.Errorf("render output suspiciously short: %d bytes", len(out))
	}
}

// failOnce fails the one write that contains needle and counts the
// writes that reach it afterwards.
type failOnce struct {
	needle string
	err    error
	failed bool
	after  int
}

func (f *failOnce) Write(p []byte) (int, error) {
	switch {
	case f.failed:
		f.after++
	case strings.Contains(string(p), f.needle):
		f.failed = true
		return 0, f.err
	}
	return len(p), nil
}

// TestRenderReturnsWriteError: a write that fails inside §5, on a line
// whose error used to be dropped, is what Render returns, and nothing is
// written after it.
func TestRenderReturnsWriteError(t *testing.T) {
	boom := errors.New("disk full")
	w := &failOnce{needle: "objects created ≤1 month before listing", err: boom}
	if err := study(t).Results().Render(w); !errors.Is(err, boom) {
		t.Fatalf("Render = %v, want %v", err, boom)
	}
	if !w.failed || w.after != 0 {
		t.Errorf("failed %v, %d writes after the failing one; want true, 0", w.failed, w.after)
	}
}

func TestWriteAndLoadStudy(t *testing.T) {
	s := study(t)
	dir := t.TempDir()
	if err := s.WriteArchives(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStudyWithOptions(dir, smallConfig(), IngestOptions{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.World != nil {
		t.Error("loaded study should have no generated world")
	}
	if err := loaded.WriteArchives(t.TempDir()); err == nil {
		t.Error("WriteArchives without world should fail")
	}
	a := s.Results()
	b := loaded.Results()
	if a.Fig1.TotalPrefixes != b.Fig1.TotalPrefixes || a.Fig1.WithRecord != b.Fig1.WithRecord {
		t.Errorf("reloaded study differs: %+v vs %+v", a.Fig1, b.Fig1)
	}
	if a.Sec5.WithHijackerASNObject != b.Sec5.WithHijackerASNObject {
		t.Errorf("Sec5 differs after reload")
	}
}

// TestWindowMustHoldADay: a window whose last day is before its first
// fails both facade paths with an error naming the window (it used to
// build, then panic in the experiments); a one-day window still renders.
func TestWindowMustHoldADay(t *testing.T) {
	dir := t.TempDir()
	if err := study(t).WriteArchives(dir); err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	day := cfg.Window.Last
	cfg.Window.First, cfg.Window.Last = cfg.Window.Last, cfg.Window.First
	want := cfg.Window.String()
	if _, err := NewStudy(cfg); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("NewStudy over %s: err = %v, want one naming the window", want, err)
	}
	if _, err := LoadStudyWithOptions(dir, cfg, IngestOptions{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("LoadStudyWithOptions over %s: err = %v, want one naming the window", want, err)
	}

	cfg.Window.First, cfg.Window.Last = day, day
	s, err := LoadStudyWithOptions(dir, cfg, IngestOptions{Strict: true})
	if err != nil {
		t.Fatalf("one-day window %s: %v", cfg.Window, err)
	}
	defer s.Close()
	if err := s.Results().Render(io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryJSONRoundTrip(t *testing.T) {
	s := study(t)
	sum := s.Results().Summary()
	if sum.TotalListings != 712 || sum.FilteringPeers != 3 || !sum.RPKIValidHijack {
		t.Errorf("summary = %+v", sum)
	}
	if sum.CasePrefix != "132.255.0.0/22" {
		t.Errorf("case prefix = %q", sum.CasePrefix)
	}
	raw, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	var back Summary
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.TotalListings != sum.TotalListings || back.SignRateRemoved != sum.SignRateRemoved {
		t.Error("JSON round trip lost fields")
	}
	if back.CategoryCounts["Hijacked"] != 179 {
		t.Errorf("category counts = %v", back.CategoryCounts)
	}
}
