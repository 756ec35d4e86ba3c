package dropscope

import (
	"bytes"
	"testing"
)

func renderBytes(t *testing.T, r Results) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := r.Render(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestResultsDeterministic is the regression guard for the parallel
// pipeline: two runs of the parallel path over the same study must render
// byte-identically, which is only true while the sorted-collector merge
// and full-key sort ordering hold.
func TestResultsDeterministic(t *testing.T) {
	s := study(t)
	first := renderBytes(t, s.Results())
	second := renderBytes(t, s.Results())
	if !bytes.Equal(first, second) {
		t.Fatalf("two parallel Results runs rendered differently (%d vs %d bytes)",
			len(first), len(second))
	}
}

// TestResultsSerialMatchesParallel checks the escape hatch and the
// parallel scheduler agree byte for byte, across several worker bounds.
func TestResultsSerialMatchesParallel(t *testing.T) {
	s := study(t)
	serial := renderBytes(t, s.ResultsSerial())
	for _, workers := range []int{0, 2, 3, 16} {
		parallel := renderBytes(t, runExperiments(s.Pipeline, workers))
		if !bytes.Equal(serial, parallel) {
			t.Fatalf("workers=%d: parallel render diverged from serial (%d vs %d bytes)",
				workers, len(parallel), len(serial))
		}
	}
}

// TestSerialAndParallelStudiesAgree builds two whole studies — one loaded
// serially end to end, one with every parallel path enabled — and checks
// the rendered reports match. This covers the full pipeline: concurrent
// RIB loading, sorted-collector merge, and the experiment fan-out.
func TestSerialAndParallelStudiesAgree(t *testing.T) {
	parallel := study(t)
	serialStudy, err := NewStudySerial(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	got := renderBytes(t, parallel.Results())
	want := renderBytes(t, serialStudy.ResultsSerial())
	if !bytes.Equal(got, want) {
		t.Fatal("parallel study render diverged from an independently built serial study")
	}
}

// TestDamagedStudySerialMatchesParallel extends the determinism guard to
// the quarantine path: over the same damaged archives and the same skip
// budget, a fully serial lenient build and a fully parallel one must
// render byte-identically — skip counts, quarantine decisions, and the
// data-health section included.
func TestDamagedStudySerialMatchesParallel(t *testing.T) {
	dir, _ := writeDamagedArchives(t, 2)
	serialStudy, err := LoadStudyWithOptions(dir, smallConfig(), IngestOptions{Workers: 1, MaxSkip: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallelStudy, err := LoadStudyWithOptions(dir, smallConfig(), IngestOptions{MaxSkip: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := renderBytes(t, serialStudy.ResultsSerial())
	got := renderBytes(t, parallelStudy.Results())
	if !bytes.Equal(got, want) {
		t.Fatalf("damaged-archive renders diverged between serial and parallel builds (%d vs %d bytes)",
			len(got), len(want))
	}
	if !bytes.Contains(want, []byte("Data health")) {
		t.Error("damaged-archive render lacks the data-health section")
	}
}
