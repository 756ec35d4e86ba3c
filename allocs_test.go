package dropscope

import (
	"runtime"
	"testing"
)

// Allocation ceilings for one load through the facade, per route, at
// smallConfig with Workers: 1: the count measured when the ceiling was
// set, plus 5 %. Allocations are the one cost unit that does not depend
// on the machine, which is why these are constants in a test; timings
// come from paired benchmark/run.sh runs.
const (
	// About 150k of a cold load is loading the text archives, each
	// day's file parsed as a diff against the day before's (it was 380k
	// when every line of every day was parsed). The warm and append
	// loads find the text journal the first cached load recorded and
	// replay it instead, so the text costs them about 60k. A cold load
	// decodes through pooled records, so its MRT decode allocates next
	// to nothing per record.
	coldLoadAllocs   = 202199 * 105 / 100
	warmLoadAllocs   = 74945 * 105 / 100
	appendLoadAllocs = 89848 * 105 / 100
)

// mallocs counts the heap allocations one call of f makes.
// testing.AllocsPerRun calls f at least twice, and a second append load
// over the same snapshot directory is a warm one.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestLoadPathAllocs pins what each route through the loader costs in
// allocations — cold (decode and build), warm (map the snapshot and
// replay the text journal) and append (decode only the grown tail) —
// each checked to have taken the route it names, and the two orderings the routes exist for: warm
// under 40 % of cold, append under a cold rebuild of the grown archive.
func TestLoadPathAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a full archive five times")
	}
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	s, dir, snapDir := growableArchive(t)
	stale := copySnapshot(t, snapDir)

	load := func(opts IngestOptions, wantSnapshot bool) uint64 {
		t.Helper()
		opts.Workers = 1
		var st *Study
		var err error
		n := mallocs(func() { st, err = LoadStudyWithOptions(dir, smallConfig(), opts) })
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if got := st.snap != nil; got != wantSnapshot {
			t.Fatalf("load %+v: snapshot-backed = %v, want %v", opts, got, wantSnapshot)
		}
		return n
	}
	cold := load(IngestOptions{}, false)
	warm := load(IngestOptions{SnapshotDir: snapDir}, true)

	if records, _ := s.AmplifyVolume(64, 2); records == 0 {
		t.Fatal("AmplifyVolume appended nothing")
	}
	if err := s.WriteArchives(dir); err != nil {
		t.Fatal(err)
	}
	grownCold := load(IngestOptions{}, false)
	appended := load(IngestOptions{SnapshotDir: stale, Append: true}, true)

	t.Logf("allocations: cold %d, warm %d, append %d, grown cold %d", cold, warm, appended, grownCold)
	for _, c := range []struct {
		route        string
		got, ceiling uint64
	}{
		{"cold", cold, coldLoadAllocs},
		{"warm", warm, warmLoadAllocs},
		{"append", appended, appendLoadAllocs},
	} {
		if c.got > c.ceiling {
			t.Errorf("%s load: %d allocations, ceiling %d", c.route, c.got, c.ceiling)
		}
	}
	if warm*10 >= cold*4 {
		t.Errorf("warm load (%d allocations) is not under 40 %% of cold (%d)", warm, cold)
	}
	if appended >= grownCold {
		t.Errorf("append load (%d allocations) is not cheaper than a cold rebuild of the grown archive (%d)", appended, grownCold)
	}
}
