package ribsnap

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestAcquireAfterCloseErrClosed is the regression test for the
// unguarded-unmap bug: a late reader arriving after Close must get the
// typed ErrClosed instead of walking unmapped memory.
func TestAcquireAfterCloseErrClosed(t *testing.T) {
	ix, window := randomIndex(t, 11)
	digest := [32]byte{1}
	path := writeTestSnapshot(t, ix, window, digest)
	snap, err := Load(path, digest)
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Acquire(); err != nil {
		t.Fatalf("Acquire on live snapshot: %v", err)
	}
	snap.Release()
	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
	if err := snap.Acquire(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Acquire after Close = %v, want ErrClosed", err)
	}
	if err := snap.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestCloseDefersUnmapUntilLastRelease pins the drain protocol: with
// readers in flight, Close must not release the mapping; the final
// Release does, exactly once.
func TestCloseDefersUnmapUntilLastRelease(t *testing.T) {
	var unmapped atomic.Int32
	snap := &Snapshot{unmap: func() error { unmapped.Add(1); return nil }}

	for i := 0; i < 3; i++ {
		if err := snap.Acquire(); err != nil {
			t.Fatal(err)
		}
	}
	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
	if n := unmapped.Load(); n != 0 {
		t.Fatalf("unmapped %d times with 3 readers in flight; want 0", n)
	}
	snap.Release()
	snap.Release()
	if n := unmapped.Load(); n != 0 {
		t.Fatalf("unmapped %d times with 1 reader in flight; want 0", n)
	}
	snap.Release()
	if n := unmapped.Load(); n != 1 {
		t.Fatalf("unmapped %d times after last Release; want 1", n)
	}
	if err := snap.Close(); err != nil {
		t.Fatalf("Close after drain: %v", err)
	}
	if n := unmapped.Load(); n != 1 {
		t.Fatalf("unmapped %d times after repeated Close; want 1", n)
	}
}

// TestZeroSnapshotLifetime checks a Snapshot with no mapping (a
// cold-built index wrapped for the daemon) supports the same protocol.
func TestZeroSnapshotLifetime(t *testing.T) {
	var snap Snapshot
	if err := snap.Acquire(); err != nil {
		t.Fatal(err)
	}
	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
	snap.Release()
	if err := snap.Acquire(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Acquire after Close = %v, want ErrClosed", err)
	}
}

// TestConcurrentAcquireCloseRace hammers Acquire/Release from many
// goroutines while Close lands mid-flight: every reader either acquired
// (and the mapping stayed alive until its Release) or saw ErrClosed,
// and the unmap ran exactly once. Run under -race this also proves the
// guard itself is data-race-free.
func TestConcurrentAcquireCloseRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		var unmapped atomic.Int32
		alive := atomic.Bool{}
		alive.Store(true)
		snap := &Snapshot{unmap: func() error {
			alive.Store(false)
			unmapped.Add(1)
			return nil
		}}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					if err := snap.Acquire(); err != nil {
						if !errors.Is(err, ErrClosed) {
							t.Errorf("Acquire: %v", err)
						}
						return
					}
					if !alive.Load() {
						t.Error("acquired snapshot with mapping already released")
					}
					snap.Release()
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			snap.Close()
		}()
		wg.Wait()
		if n := unmapped.Load(); n != 1 {
			t.Fatalf("round %d: unmapped %d times; want 1", round, n)
		}
	}
}

// TestLoadRecordsDigest checks Load surfaces the archive digest the
// snapshot was keyed on — the generation identity the daemon reports.
func TestLoadRecordsDigest(t *testing.T) {
	ix, window := randomIndex(t, 12)
	digest := [32]byte{9, 8, 7}
	path := writeTestSnapshot(t, ix, window, digest)
	snap, err := Load(path, digest)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if snap.Digest != digest {
		t.Fatalf("snapshot digest %x, want %x", snap.Digest, digest)
	}
}
