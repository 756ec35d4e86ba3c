package serve

import (
	"context"
	"fmt"
	"time"

	"dropscope/internal/ribsnap"
)

// Scrubber is the background integrity loop: it incrementally re-reads
// the live generation's shard files, one at a time in small,
// rate-limited steps, and re-verifies each payload CRC against its
// header, catching bitrot and torn overwrites long after the load-time
// check passed. Every step runs with the generation pinned
// (Acquire/Release), and the verification reads go through a file
// handle of their own — never a mapping — so a damaged or truncated
// file surfaces as a typed error in the scrubber, not a SIGBUS in a
// query handler. A generation built in memory has no files and is not
// scrubbed.
//
// On a mismatch the scrubber quarantines the shard, marks the
// generation corrupt in the snapshot store (so no future load
// re-adopts the damaged files), flips the daemon to degraded, and hands
// the reload supervisor a trigger: the reload finds the store refusing
// the corrupt generation, cold-rebuilds from the archive, rewrites the
// generation, and swaps it in. Degraded, never down: a quarantined
// shard's range fails fast while the rest keeps answering, and a
// monolith's one shard keeps answering from its pinned mapping.
type Scrubber struct {
	srv   *Server
	cfg   ScrubConfig
	stats *Stats
}

// Scrub pacing.
const (
	// scrubChunk is how many payload bytes one step verifies.
	scrubChunk = 1 << 20
	// scrubInterval is the pause between steps — the rate limit that
	// keeps scrub reads from competing with query traffic.
	scrubInterval = 50 * time.Millisecond
	// scrubPassInterval is the idle pause after a completed pass (and
	// the re-probe interval while there is nothing to scrub).
	scrubPassInterval = time.Minute
)

// ScrubConfig parameterizes a Scrubber.
type ScrubConfig struct {
	// Store, when non-nil, records corruption findings in the manifest
	// journal so the damaged generation is never re-adopted.
	Store *ribsnap.Store
	// Reloader, when non-nil, is triggered on corruption to cold-rebuild
	// a replacement generation.
	Reloader *Reloader
	// OnEvent, when non-nil, observes scrub lifecycle messages.
	OnEvent func(string)

	// chunk, interval and passInterval override the pacing constants;
	// the scrub tests speed it up.
	chunk        int
	interval     time.Duration
	passInterval time.Duration
}

// NewScrubber builds a scrubber over srv, sharing its Stats.
func NewScrubber(srv *Server, cfg ScrubConfig) *Scrubber {
	if cfg.chunk <= 0 {
		cfg.chunk = scrubChunk
	}
	if cfg.interval <= 0 {
		cfg.interval = scrubInterval
	}
	if cfg.passInterval <= 0 {
		cfg.passInterval = scrubPassInterval
	}
	return &Scrubber{srv: srv, cfg: cfg, stats: srv.stats}
}

// Run paces verification steps until ctx ends. It is the only
// goroutine that advances scrub state; all coordination with swaps
// goes through the generation refcount.
func (s *Scrubber) Run(ctx context.Context) error {
	t := time.NewTimer(s.cfg.interval)
	defer t.Stop()
	var (
		cur  *Generation // generation the in-progress pass belongs to
		pass *shardPass
	)
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}

		if g := s.srv.Generation(); g != cur {
			// A swap landed (or the first generation arrived): abandon
			// any stale pass and open one over the new generation.
			cur = g
			pass.close()
			pass = nil
			if g != nil && g.shards != nil {
				pass = &shardPass{ss: g.shards}
				s.event(fmt.Sprintf("scrub: starting pass over generation %s (%d shards)",
					g.DigestHex()[:12], g.shards.NumShards()))
			}
		}
		if pass == nil {
			// Nothing to verify: no generation yet, or one built in
			// memory with no files behind it.
			t.Reset(s.cfg.passInterval)
			continue
		}
		done, retired := s.stepShards(cur, pass)
		switch {
		case retired:
			cur, pass = nil, nil
			t.Reset(s.cfg.interval)
		case done:
			s.stats.ScrubPasses.Add(1)
			s.event(fmt.Sprintf("scrub: pass over generation %s complete (%d bytes)",
				cur.DigestHex()[:12], pass.bytes))
			// Forget the generation so the next tick starts a fresh pass
			// — rot accumulates with time, not with swaps.
			cur, pass = nil, nil
			t.Reset(s.cfg.passInterval)
		default:
			t.Reset(s.cfg.interval)
		}
	}
}

func (s *Scrubber) event(msg string) {
	if s.cfg.OnEvent != nil {
		s.cfg.OnEvent(msg)
	}
}

// shardPass walks a generation one shard file at a time. Each shard is
// verified through its own scrub handle (OpenScrub), so an evicted
// shard is re-read straight from disk without faulting it back into
// the residency budget.
type shardPass struct {
	ss    *ribsnap.ShardSet
	next  int            // next shard to open
	cur   *ribsnap.Scrub // in-progress shard, nil between shards
	shard int            // index of cur
	bytes uint64         // payload bytes verified across the pass
}

// close abandons the in-progress shard handle; safe on nil.
func (sp *shardPass) close() {
	if sp != nil && sp.cur != nil {
		sp.cur.Close()
		sp.cur = nil
	}
}

// stepShards advances a pass by one chunk. A damaged shard is marked
// bad and the pass moves on to the next shard: the rest of the address
// space keeps its integrity coverage while the reload supervisor
// rebuilds.
func (s *Scrubber) stepShards(cur *Generation, sp *shardPass) (done, retired bool) {
	if err := cur.Acquire(); err != nil {
		sp.close()
		return false, true
	}
	defer cur.Release()
	for sp.cur == nil {
		if sp.next >= sp.ss.NumShards() {
			return true, false
		}
		i := sp.next
		sp.next++
		// A fault-in's quarantine is scrubbed until the generation is
		// journaled corrupt, so it is reported and healed too.
		if sp.ss.IsBad(i) && (s.cfg.Store == nil || s.cfg.Store.Status(cur.snap.Digest) == ribsnap.GenCorrupt) {
			continue // already reported; nothing left to learn
		}
		sc, err := ribsnap.OpenScrub(sp.ss.ShardPath(i))
		if err != nil {
			s.shardCorrupt(cur, i, err)
			continue
		}
		sp.cur, sp.shard = sc, i
	}
	before := sp.cur.Offset()
	stepDone, err := sp.cur.Step(s.cfg.chunk)
	verified := sp.cur.Offset() - before
	s.stats.ScrubBytes.Add(verified)
	sp.bytes += verified
	if err != nil {
		s.shardCorrupt(cur, sp.shard, err)
		sp.close()
		return sp.next >= sp.ss.NumShards(), false
	}
	if stepDone {
		sp.close()
		return sp.next >= sp.ss.NumShards(), false
	}
	return false, false
}

// shardCorrupt records a scrub finding against one shard: the shard is
// quarantined in the set (queries on its range fail fast, the rest of
// the generation keeps serving; a monolith's pinned shard keeps
// answering), the generation is journaled corrupt so no future load
// re-adopts it, and the reload supervisor is triggered to rebuild.
func (s *Scrubber) shardCorrupt(cur *Generation, i int, err error) {
	s.stats.CorruptTotal.Add(1)
	s.stats.SetScrubError(fmt.Sprintf("shard %d: %v", i, err))
	s.stats.Degraded.Store(true)
	cur.shards.MarkBad(i)
	s.event(fmt.Sprintf("scrub: corruption on generation %s shard %d: %v",
		cur.DigestHex()[:12], i, err))
	if s.cfg.Store != nil {
		if merr := s.cfg.Store.MarkCorrupt(cur.snap.Digest); merr != nil {
			s.event(fmt.Sprintf("scrub: recording corruption: %v", merr))
		}
	}
	if s.cfg.Reloader != nil {
		s.cfg.Reloader.Trigger()
	}
}
