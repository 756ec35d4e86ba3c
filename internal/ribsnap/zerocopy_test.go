package ribsnap

import (
	"reflect"
	"testing"

	"dropscope/internal/netx"
)

// withZeroCopy runs fn with the zero-copy cast forced on or off,
// restoring the previous setting afterwards. Serial use only: the
// gate is a package variable, not per-load state.
func withZeroCopy(t *testing.T, on bool, fn func()) {
	t.Helper()
	prev := zerocopyEnabled
	zerocopyEnabled = on
	defer func() { zerocopyEnabled = prev }()
	fn()
}

// TestCopyDecodePathMatchesZeroCopy forces the copying decode fallback
// — the code path a big-endian or misaligned mapping would take, which
// little-endian CI otherwise never executes — and checks that the two
// decodes of the same snapshot answer queries identically.
func TestCopyDecodePathMatchesZeroCopy(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		ix, window := randomIndex(t, seed)
		digest := [32]byte{9, 9, byte(seed)}
		path := writeTestSnapshot(t, ix, window, digest)

		load := func(on bool) *Snapshot {
			t.Helper()
			var s *Snapshot
			withZeroCopy(t, on, func() {
				var err error
				s, err = Load(path, digest)
				if err != nil {
					t.Fatalf("zerocopy=%v: %v", on, err)
				}
			})
			return s
		}
		zc, cp := load(true), load(false)

		probes := append(append([]netx.Prefix{}, zc.Index.Prefixes()...),
			netx.MustParsePrefix("192.0.2.0/26"),
			netx.MustParsePrefix("203.0.113.0/24"),
		)
		if !reflect.DeepEqual(zc.Index.Peers(), cp.Index.Peers()) {
			t.Fatal("peers diverged between decode paths")
		}
		if !reflect.DeepEqual(zc.Index.Prefixes(), cp.Index.Prefixes()) {
			t.Fatal("prefixes diverged between decode paths")
		}
		if !reflect.DeepEqual(zc.Index.ByOrigin(), cp.Index.ByOrigin()) {
			t.Fatal("ByOrigin diverged between decode paths")
		}
		for _, p := range probes {
			if !reflect.DeepEqual(zc.Index.OriginTimeline(p), cp.Index.OriginTimeline(p)) {
				t.Errorf("%s: OriginTimeline diverged", p)
			}
			for _, d := range probeDays() {
				if a, b := zc.Index.Observed(p, d), cp.Index.Observed(p, d); a != b {
					t.Errorf("%s day %v: Observed %v != %v", p, d, a, b)
				}
				if a, b := zc.Index.VisibleFraction(p, d), cp.Index.VisibleFraction(p, d); a != b {
					t.Errorf("%s day %v: VisibleFraction %v != %v", p, d, a, b)
				}
				if !reflect.DeepEqual(zc.Index.PeersObserving(p, d), cp.Index.PeersObserving(p, d)) {
					t.Errorf("%s day %v: PeersObserving diverged", p, d)
				}
			}
		}
		for _, d := range probeDays() {
			if !reflect.DeepEqual(zc.Index.MOASConflicts(d), cp.Index.MOASConflicts(d)) {
				t.Errorf("day %v: MOASConflicts diverged", d)
			}
		}
		zc.Close()
		cp.Close()
	}
}

// TestCopyDecodeIsIndependentOfMapping: with zero-copy disabled the
// decoded index must not alias the mapped bytes — closing the snapshot
// (unmapping the file) must leave every decoded structure readable.
func TestCopyDecodeIsIndependentOfMapping(t *testing.T) {
	ix, window := randomIndex(t, 3)
	digest := [32]byte{7}
	path := writeTestSnapshot(t, ix, window, digest)

	withZeroCopy(t, false, func() {
		s, err := Load(path, digest)
		if err != nil {
			t.Fatal(err)
		}
		prefixes := s.Index.Prefixes()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// After Close the mapping is gone; copied columns must survive.
		for _, p := range prefixes {
			for _, d := range probeDays() {
				_ = s.Index.Observed(p, d)
				_ = s.Index.VisibleFraction(p, d)
			}
			_ = s.Index.OriginTimeline(p)
		}
	})
}
