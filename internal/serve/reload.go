package serve

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"path/filepath"
	"strconv"
	"time"

	"dropscope/internal/ingest"
	"dropscope/internal/session"
)

// Reloader is the self-healing generation-reload supervisor: triggers
// (SIGHUP, or a change noticed by the archive watch poll) start a
// reload cycle that retries failed loads under jittered backoff with a
// restart budget, reusing internal/session's Supervisor. While a cycle
// is failing the daemon is *degraded* — it keeps answering from the
// generation it has (stale but available, surfaced in /healthz and
// /metrics) and never goes down because an archive build was broken.
// A cycle whose budget exhausts gives up until the next trigger or
// watch tick, so a later repaired archive still heals the daemon.
type Reloader struct {
	srv   *Server
	cfg   ReloadConfig
	clock session.Clock
	stats *Stats
	// trigger carries at most one pending reload request; concurrent
	// triggers during a running cycle coalesce into one follow-up.
	trigger chan struct{}
	// load is serve.Load, swappable by tests.
	load func(string, LoadOptions) (*Generation, error)
	// stamp is the archive fingerprint of the last load attempt the
	// watcher knows about; only the Run goroutine touches it.
	stamp uint64
}

// Reload supervision: a failing reload retries 1s..30s doubling with
// 20% jitter, at most reloadBudget failed attempts per
// reloadBudgetWindow inside one cycle.
var reloadBackoff = session.Backoff{Min: time.Second, Max: 30 * time.Second, Jitter: 0.2}

const (
	reloadBudget       = 8
	reloadBudgetWindow = 5 * time.Minute
)

// ReloadConfig parameterizes a Reloader.
type ReloadConfig struct {
	// Dir is the archive directory to reload.
	Dir string
	// Opts is the load configuration (window, skip budget, snapshot
	// store). Opts.Health is overwritten per attempt.
	Opts LoadOptions
	// Watch, when positive, polls the archive directory at this
	// interval and triggers a reload when its contents change (and
	// retries while degraded, so a transiently broken load self-heals
	// without an operator SIGHUP). 0 disables the watcher. The snapshot
	// store's directory is not watched when it lies inside the archive:
	// a reload's own writes there are no change to the archive.
	Watch time.Duration
	// OnEvent, when non-nil, observes reload lifecycle messages.
	OnEvent func(string)

	// clock drives backoff waits and the watch poll (nil = real clock),
	// and budget overrides reloadBudget; the supervision tests set both.
	clock  session.Clock
	budget int
}

// NewReloader builds a reloader over srv, sharing its Stats.
func NewReloader(srv *Server, cfg ReloadConfig) *Reloader {
	if cfg.clock == nil {
		cfg.clock = session.Real()
	}
	if cfg.budget == 0 {
		cfg.budget = reloadBudget
	}
	r := &Reloader{
		srv:     srv,
		cfg:     cfg,
		clock:   cfg.clock,
		stats:   srv.stats,
		trigger: make(chan struct{}, 1),
		load:    Load,
	}
	r.stamp = r.archiveStamp()
	return r
}

// Trigger requests a reload cycle (the SIGHUP entry point). It never
// blocks; triggers arriving while a cycle runs coalesce into one.
func (r *Reloader) Trigger() {
	select {
	case r.trigger <- struct{}{}:
	default:
	}
}

// Run services triggers and the watch poll until ctx ends. It is the
// single goroutine that loads and swaps generations.
func (r *Reloader) Run(ctx context.Context) error {
	var watchC <-chan time.Time
	var watchT session.Timer
	if r.cfg.Watch > 0 {
		watchT = r.clock.NewTimer(r.cfg.Watch)
		watchC = watchT.C()
		defer watchT.Stop()
	}
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-r.trigger:
			r.stamp = r.archiveStamp()
			r.cycle(ctx)
		case <-watchC:
			if stamp := r.archiveStamp(); stamp != r.stamp || r.stats.Degraded.Load() {
				r.stamp = stamp
				r.cycle(ctx)
			}
			watchT.Reset(r.cfg.Watch)
		}
	}
}

// cycle runs one supervised reload: load-and-swap, retried under
// backoff until it succeeds, the budget exhausts, or ctx ends. The
// daemon is degraded from the first failure until a success.
func (r *Reloader) cycle(ctx context.Context) {
	retries := 0
	sup := session.New("reload", func(context.Context) error {
		h := ingest.NewHealth()
		src := h.Source("serve/reload")
		for i := 0; i < retries; i++ {
			src.CountReloadRetry()
		}
		opts := r.cfg.Opts
		opts.Health = h
		t0 := time.Now()
		g, err := r.load(r.cfg.Dir, opts)
		if err != nil {
			retries++
			r.stats.ReloadRetries.Add(1)
			r.stats.Degraded.Store(true)
			r.stats.SetReloadError(err.Error())
			return err
		}
		if g.DeltaBuilt() {
			// Counted before the swap publishes the generation, so a
			// reader that observes the new generation also observes the
			// incremented counter.
			r.stats.DeltaReloads.Add(1)
		}
		r.srv.Swap(g)
		r.stats.Degraded.Store(false)
		r.stats.SetReloadError("")
		how := "swapped in"
		if g.DeltaBuilt() {
			how = "delta-merged in"
		}
		r.event(fmt.Sprintf("reload: %s generation %s in %v (attempt %d)",
			how, g.DigestHex()[:12], time.Since(t0).Round(time.Millisecond), retries+1))
		return nil
	}, session.Config{
		Backoff:     reloadBackoff,
		Budget:      r.cfg.budget,
		Window:      reloadBudgetWindow,
		StableAfter: reloadBudgetWindow,
		Clock:       r.clock,
		OnRetry: func(e session.Event) {
			r.event(fmt.Sprintf("reload: attempt %d failed (%v), retrying in %v; serving stale generation",
				e.Attempt, e.Err, e.Wait.Round(time.Millisecond)))
		},
	})
	if err := sup.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		if errors.Is(err, session.ErrBudgetExhausted) {
			r.event(fmt.Sprintf(
				"reload: budget exhausted after %d attempts; staying degraded on the current generation until the next trigger", retries))
		}
		// Degraded stays set: the watcher (or the next SIGHUP) owns
		// recovery from here.
	}
}

func (r *Reloader) event(msg string) {
	if r.cfg.OnEvent != nil {
		r.cfg.OnEvent(msg)
	}
}

// archiveStamp fingerprints the watched archive, leaving out the
// snapshot store's directory.
func (r *Reloader) archiveStamp() uint64 {
	skip := ""
	if st := r.cfg.Opts.Store; st != nil {
		skip = st.Dir()
	}
	return archiveStamp(r.cfg.Dir, skip)
}

// archiveStamp fingerprints an archive directory by walking it and
// hashing every entry's path, size, and mtime — cheap enough to poll,
// sensitive to any file added, removed, resized, or rewritten. Errors
// hash in as their message, so a directory flickering in and out of
// existence reads as change, not silence. A symlinked archive root is
// resolved first, so the "flip a symlink to the new build" deployment
// pattern reads as a change too. The directory skip, resolved the same
// way, is left out when it lies under the archive: the default store
// lives at ARCHIVE/ribsnap, and the generation each reload writes there
// must not read as the next change.
func archiveStamp(dir, skip string) uint64 {
	h := fnv.New64a()
	if resolved, rerr := filepath.EvalSymlinks(dir); rerr == nil {
		h.Write([]byte(resolved))
		h.Write([]byte{0})
		dir = resolved
	}
	dir, skip = absolute(dir), absolute(skip)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			fmt.Fprintf(h, "err:%s:%v\n", path, err)
			return nil
		}
		if path == skip && path != dir && d.IsDir() {
			return fs.SkipDir
		}
		info, ierr := d.Info()
		if ierr != nil {
			fmt.Fprintf(h, "err:%s:%v\n", path, ierr)
			return nil
		}
		h.Write([]byte(path))
		h.Write([]byte{0})
		h.Write([]byte(strconv.FormatInt(info.Size(), 10)))
		h.Write([]byte{0})
		h.Write([]byte(strconv.FormatInt(info.ModTime().UnixNano(), 10)))
		h.Write([]byte{0})
		return nil
	})
	if err != nil {
		fmt.Fprintf(h, "walk:%v\n", err)
	}
	return h.Sum64()
}

// absolute returns p resolved through symlinks and made absolute, as
// far as it can be; "" stays "".
func absolute(p string) string {
	if p == "" {
		return ""
	}
	if resolved, err := filepath.EvalSymlinks(p); err == nil {
		p = resolved
	}
	if abs, err := filepath.Abs(p); err == nil {
		p = abs
	}
	return p
}
