package serve

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dropscope/internal/ribsnap"
	"dropscope/internal/session"
)

// eventLog collects reload lifecycle messages race-safely.
type eventLog struct {
	mu   sync.Mutex
	msgs []string
}

func (l *eventLog) add(msg string) {
	l.mu.Lock()
	l.msgs = append(l.msgs, msg)
	l.mu.Unlock()
}

func (l *eventLog) contains(substr string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, m := range l.msgs {
		if strings.Contains(m, substr) {
			return true
		}
	}
	return false
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// reloadFixture wires a server, fake clock, and reloader whose load
// function fails `failures` times before delegating to the real loader.
func reloadFixture(t *testing.T, failures int32, cfg ReloadConfig) (*Server, *Reloader, *session.FakeClock, *eventLog, *atomic.Int32) {
	t.Helper()
	dir, window := writeWorld(t, 1)
	srv := New(loadDir(t, dir, window))
	clock := session.NewFake(time.Unix(1_700_000_000, 0))
	log := &eventLog{}
	cfg.Dir = dir
	cfg.Opts = LoadOptions{Window: window}
	cfg.clock = clock
	cfg.OnEvent = log.add
	r := NewReloader(srv, cfg)
	calls := &atomic.Int32{}
	real := r.load
	r.load = func(d string, o LoadOptions) (*Generation, error) {
		if calls.Add(1) <= failures {
			return nil, errors.New("injected load failure")
		}
		return real(d, o)
	}
	return srv, r, clock, log, calls
}

// TestReloadRetryThenHeal is the self-healing acceptance test: a
// trigger whose load fails twice leaves the daemon serving the old
// generation in degraded mode, retries under backoff on the fake
// clock, and on the third attempt swaps the new generation in and
// clears the degraded flag.
func TestReloadRetryThenHeal(t *testing.T) {
	srv, r, clock, log, _ := reloadFixture(t, 2, ReloadConfig{})
	stats := srv.Stats()
	before := srv.Generation().DigestHex()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); r.Run(ctx) }()

	r.Trigger()
	// Attempt 1 fails and arms the backoff timer; while it pends the
	// daemon is degraded but still serving the old generation.
	clock.BlockUntil(1)
	if !stats.Degraded.Load() {
		t.Fatal("not degraded after first failed attempt")
	}
	if stats.ReloadError() == "" {
		t.Fatal("no reload error recorded")
	}
	if srv.Generation().DigestHex() != before {
		t.Fatal("failed reload replaced the serving generation")
	}
	clock.Advance(reloadBackoff.Max) // past any backoff wait: attempt 2 fails
	clock.BlockUntil(1)
	clock.Advance(reloadBackoff.Max) // attempt 3 succeeds

	// The swap event is logged just after the degraded flag clears, so
	// wait for it too rather than racing the reload goroutine.
	waitFor(t, "heal", func() bool {
		return !stats.Degraded.Load() && srv.Swaps() == 1 && log.contains("swapped in generation")
	})
	if stats.ReloadRetries.Load() != 2 {
		t.Fatalf("reload_retries %d, want 2", stats.ReloadRetries.Load())
	}
	if stats.ReloadError() != "" {
		t.Fatalf("reload error %q after heal", stats.ReloadError())
	}
	if !log.contains("swapped in generation") {
		t.Fatalf("no swap event logged: %v", log.msgs)
	}
	// The healed generation's own health report carries the retries
	// that preceded it, under the serve/reload source.
	rep := srv.Generation().Pipeline().HealthReport()
	var found bool
	for _, s := range rep.Sources {
		if s.Name == "serve/reload" {
			found = true
			if s.ReloadRetries != 2 {
				t.Fatalf("serve/reload source retries %d, want 2", s.ReloadRetries)
			}
		}
	}
	if !found {
		t.Fatal("healed generation's health report missing serve/reload source")
	}
	cancel()
	<-done
}

// TestReloadBudgetExhaustedStaysDegraded pins the give-up contract: a
// cycle that burns its whole budget stops retrying but leaves the
// daemon serving (degraded, old generation); the NEXT trigger — the
// operator fixed the archive — heals it.
func TestReloadBudgetExhaustedStaysDegraded(t *testing.T) {
	srv, r, clock, log, calls := reloadFixture(t, 1<<30, ReloadConfig{budget: 2})
	stats := srv.Stats()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); r.Run(ctx) }()

	r.Trigger()
	clock.BlockUntil(1) // after failure 1
	clock.Advance(reloadBackoff.Max)
	clock.BlockUntil(1) // after failure 2
	clock.Advance(reloadBackoff.Max)
	// Failure 3 exceeds the budget of 2: the cycle abandons.
	waitFor(t, "budget exhaustion", func() bool { return log.contains("budget exhausted") })
	if !stats.Degraded.Load() {
		t.Fatal("not degraded after budget exhaustion")
	}
	if srv.Swaps() != 0 {
		t.Fatal("a failing reload somehow swapped")
	}

	// Fix the archive (all further loads succeed) and trigger again.
	calls.Store(1 << 30)
	r.Trigger()
	waitFor(t, "heal after repaired archive", func() bool {
		return !stats.Degraded.Load() && srv.Swaps() == 1
	})
	cancel()
	<-done
}

// TestWatchTriggersReload pins the file-watch path: the poll timer
// fires, an unchanged archive does nothing, and a changed archive
// (a new file under the directory) starts a reload cycle that swaps.
func TestWatchTriggersReload(t *testing.T) {
	worldDir, window := writeWorld(t, 1)
	watchDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(watchDir, "seed"), []byte("v1"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := New(loadDir(t, worldDir, window))
	clock := session.NewFake(time.Unix(1_700_000_000, 0))
	r := NewReloader(srv, ReloadConfig{
		Dir:   watchDir,
		Watch: time.Minute,
		clock: clock,
	})
	r.load = func(string, LoadOptions) (*Generation, error) {
		return Load(worldDir, LoadOptions{Window: window})
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); r.Run(ctx) }()

	clock.BlockUntil(1) // watch timer armed
	clock.Advance(time.Minute)
	clock.BlockUntil(1) // tick processed (timer re-armed): no change, no reload
	if srv.Swaps() != 0 {
		t.Fatal("unchanged archive triggered a reload")
	}

	if err := os.WriteFile(filepath.Join(watchDir, "new-rib"), []byte("v2"), 0o644); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Minute)
	waitFor(t, "watch-triggered swap", func() bool { return srv.Swaps() == 1 })
	cancel()
	<-done
}

// TestWatchIgnoresOwnStoreWrites pins that a reload's own writes are
// not the next change: with the snapshot store at ARCHIVE/ribsnap (the
// daemon's -snapshot auto), one append-only growth is one delta reload
// and one swap, however many idle ticks follow. Were the store's new
// generation directory, manifest append or text journal stamped as
// archive changes, the next tick would reload — and swap — a second
// time.
func TestWatchIgnoresOwnStoreWrites(t *testing.T) {
	w, dir, window := growableWorld(t, 36)
	store, err := ribsnap.OpenStore(filepath.Join(dir, "ribsnap"), ribsnap.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opts := LoadOptions{Window: window, Store: store, Delta: true}
	g1, err := Load(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(g1)
	clock := session.NewFake(time.Unix(1_700_000_000, 0))
	r := NewReloader(srv, ReloadConfig{Dir: dir, Opts: opts, Watch: time.Minute, clock: clock})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); r.Run(ctx) }()

	clock.BlockUntil(1) // watch timer armed
	// Without its text journal the reload records one: a store write too.
	journal := filepath.Join(store.Dir(), "text.journal")
	if err := os.Remove(journal); err != nil {
		t.Fatal(err)
	}
	grow(t, dir, w, 8, 102)
	for tick := 0; tick < 4; tick++ { // the growth, then three idle ticks
		clock.Advance(time.Minute)
		clock.BlockUntil(1) // tick processed: the timer is re-armed after any reload
	}
	if _, err := os.Stat(journal); err != nil {
		t.Errorf("the reload wrote no text journal: %v", err)
	}
	if got := srv.Swaps(); got != 1 {
		t.Errorf("swaps = %d after one archive change, want 1", got)
	}
	if got := srv.stats.DeltaReloads.Load(); got != 1 {
		t.Errorf("delta_reloads_total = %d, want 1", got)
	}
	cancel()
	<-done
}

// TestArchiveStampSensitivity pins what the watcher can see: adding,
// rewriting, and removing files all change the stamp, and — because a
// symlinked root is resolved first — flipping a symlink between two
// builds (the ln -sfn deployment pattern) reads as a change too.
func TestArchiveStampSensitivity(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "buildA")
	b := filepath.Join(dir, "buildB")
	for _, d := range []string{a, b} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(a, "rib"), []byte("aaa"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(b, "rib"), []byte("bbb"), 0o644); err != nil {
		t.Fatal(err)
	}

	s0 := archiveStamp(a, "")
	if archiveStamp(a, "") != s0 {
		t.Fatal("stamp not stable")
	}
	if err := os.WriteFile(filepath.Join(a, "extra"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	s1 := archiveStamp(a, "")
	if s1 == s0 {
		t.Fatal("added file invisible to stamp")
	}
	if err := os.Remove(filepath.Join(a, "extra")); err != nil {
		t.Fatal(err)
	}

	link := filepath.Join(dir, "current")
	if err := os.Symlink(a, link); err != nil {
		t.Skipf("no symlink support: %v", err)
	}
	sA := archiveStamp(link, "")
	if err := os.Remove(link); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(b, link); err != nil {
		t.Fatal(err)
	}
	if archiveStamp(link, "") == sA {
		t.Fatal("symlink flip invisible to stamp")
	}
}

// TestArchiveStampSkipsStore pins the store exclusion: writes inside the
// skipped directory leave the stamp alone, whether the archive and the
// store are named directly or through a symlinked root, while writes
// beside it still register; a skip outside the archive changes nothing.
func TestArchiveStampSkipsStore(t *testing.T) {
	dir := t.TempDir()
	archive := filepath.Join(dir, "archive")
	store := filepath.Join(archive, "ribsnap")
	if err := os.MkdirAll(store, 0o755); err != nil {
		t.Fatal(err)
	}
	link := filepath.Join(dir, "current")
	if err := os.Symlink(archive, link); err != nil {
		t.Skipf("no symlink support: %v", err)
	}
	write := func(path string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(path), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct{ root, skip string }{
		{archive, store},
		{link, filepath.Join(link, "ribsnap")},
		{link, store},
	} {
		s0 := archiveStamp(c.root, c.skip)
		write(filepath.Join(store, "manifest.log"))
		if archiveStamp(c.root, c.skip) != s0 {
			t.Errorf("root %s skip %s: a write inside the store changed the stamp", c.root, c.skip)
		}
		write(filepath.Join(archive, "drop.txt"))
		if archiveStamp(c.root, c.skip) == s0 {
			t.Errorf("root %s skip %s: a write beside the store left the stamp alone", c.root, c.skip)
		}
	}
	elsewhere := filepath.Join(dir, "elsewhere")
	if archiveStamp(archive, elsewhere) != archiveStamp(archive, "") {
		t.Error("a skip outside the archive changed the stamp")
	}
}
