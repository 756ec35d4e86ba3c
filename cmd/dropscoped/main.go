// Command dropscoped is the long-lived query daemon over a study
// archive: it loads the archive once (memory-mapping the persistent
// index snapshot when it matches), then answers the paper's per-prefix
// questions over HTTP — /v1/visibility, /v1/rov, /v1/drop, /v1/origins,
// /v1/figures/{day} — plus /healthz and /metrics.
//
// Usage (the flags are what differs between deployments; every other
// tuning value is a constant):
//
//	dropscoped -archive DIR [-listen ADDR] [-snapshot DIR|off] [-first DAY] [-last DAY]
//	           [-shards N] [-mem-budget N] [-max-inflight N] [-watch D]
//
// The daemon serves behind an overload-resilient request path: a
// bounded-inflight admission gate (-max-inflight) with a wait queue as
// deep and 100ms long (excess load is shed with 503 + Retry-After), 5s
// deadlines on the allocating endpoints, panic isolation, and an
// http.Server with every timeout set (slowloris clients are cut after
// 5s of dribbled headers).
//
// SIGHUP — or, with -watch, any observed change to the archive
// directory — reloads the archive and swaps the new generation in
// atomically: queries in flight finish against the generation they
// started on, new queries land on the new one, and the old mapping is
// unmapped after its last reader exits. A failing reload is retried
// under jittered backoff with a restart budget; while it fails, the
// daemon keeps serving the generation it has and reports itself
// degraded in /healthz and /metrics — stale but available, never down.
// Every response carries the generation digest (body field
// "generation" and the X-Dropscope-Generation header), so a client can
// always tell which archive state answered it.
//
// Reloads are incremental: when the archive grew append-only since the
// served generation — new bytes at the MRT tails, old bytes untouched —
// only the appended bytes are decoded, merged onto the served index,
// and persisted as the new generation. Responses are
// byte-identical to a cold rebuild's, delta reloads are counted in
// /metrics as delta_reloads_total, and any non-append change (a
// rewritten file, a removed collector) falls back to a cold rebuild.
//
// The snapshot directory is the crash-safe generation store dropscope
// -index-cache keeps (gen-<digest>/ directories of K shard files, a
// monolith is K = 1, recorded in a checksummed manifest journal): a
// crash at any point of a write leaves the old or the new complete
// generation, or none, and ribsnap.DefaultRetain retired generations
// stay on disk. A background scrubber re-verifies the live
// generation's shard files against their checksums, 1 MiB every 50ms;
// on a mismatch the daemon reports itself degraded, journals the
// generation corrupt so it is never re-adopted, and cold-rebuilds a
// replacement through the reload supervisor. Degraded, never down.
//
// -shards N cuts the generations the daemon writes into N prefix-range
// shards, and a generation cut that way is served sharded: point
// queries route to the owning shard, and sweep queries fan out in
// parallel — answers are byte-identical to the single-index daemon's.
// A generation is served in the shard count it was written with, so a
// changed -shards takes effect at the next generation written (a cold
// rebuild or a delta reload); the boot log names the served count.
// Sharded generations exist only in the snapshot store, so -shards 2
// or more is refused without one (-snapshot off). -mem-budget M caps
// how many shards keep their pages resident (decoded shards stay on the
// heap; a cold range faults back in with a CRC re-check), so an archive
// larger than RAM serves from bounded residency; the budget
// bounds shard files of the snapshot store, so it is refused without
// -shards 2 or more and without a store. The scrubber verifies shard
// files individually, and a damaged shard degrades only its prefix
// range (visible per shard in /healthz) while the reload supervisor
// rebuilds.
//
// SIGINT/SIGTERM drain gracefully: new arrivals answer 503 while
// requests already admitted run to completion, bounded by drainTimeout.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"dropscope"
	"dropscope/internal/ribsnap"
	"dropscope/internal/serve"
	"dropscope/internal/timex"
)

// drainTimeout bounds the graceful shutdown's wait for admitted
// requests.
const drainTimeout = 10 * time.Second

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dropscoped:", err)
	os.Exit(1)
}

func main() {
	var (
		archiveDir  = flag.String("archive", "", "study archive directory (required)")
		listen      = flag.String("listen", "127.0.0.1:8434", "listen address")
		snapshot    = flag.String("snapshot", "auto", `index snapshot directory ("auto" = ARCHIVE/ribsnap, "off" disables)`)
		first       = flag.String("first", "", "window first day (default: the study default)")
		last        = flag.String("last", "", "window last day (default: the study default)")
		shards      = flag.Int("shards", 0, "serve from a prefix-range sharded index cut into N pieces (0/1 = single index)")
		memBudget   = flag.Int("mem-budget", 0, "with -shards: max shards whose pages stay resident (0 = all; decoded dictionaries stay on the heap, cold ranges fault back in)")
		maxInflight = flag.Int("max-inflight", serve.DefaultMaxInflight, "admission: max concurrently executing requests (as many more may queue briefly)")
		watch       = flag.Duration("watch", 0, "poll the archive directory at this interval and reload on change (0 disables)")
	)
	flag.Parse()
	if *archiveDir == "" {
		fmt.Fprintln(os.Stderr, "dropscoped: -archive is required")
		flag.Usage()
		os.Exit(2)
	}

	window := dropscope.DefaultConfig().Window
	if *first != "" {
		d, err := timex.ParseDay(*first)
		if err != nil {
			fatal(err)
		}
		window.First = d
	}
	if *last != "" {
		d, err := timex.ParseDay(*last)
		if err != nil {
			fatal(err)
		}
		window.Last = d
	}
	opts := serve.LoadOptions{
		Window:    window,
		Shards:    *shards,
		MemBudget: *memBudget,
		Delta:     true,
	}
	snapDir := ""
	switch *snapshot {
	case "off":
	case "auto":
		snapDir = filepath.Join(*archiveDir, "ribsnap")
	default:
		snapDir = *snapshot
	}
	if snapDir != "" {
		// The daemon goes through the manifest-backed store: crash
		// recovery at open (temp sweep, journal replay), corrupt
		// generations refused, retired ones garbage-collected.
		store, serr := ribsnap.OpenStore(snapDir, ribsnap.StoreOptions{})
		if serr != nil {
			log.Printf("dropscoped: snapshot store unavailable, running cold: %v", serr)
		} else {
			opts.Store = store
		}
	}

	if *memBudget > 0 && *shards < 2 {
		fatal(errors.New("-mem-budget bounds how many shards keep their pages resident; it needs -shards 2 or more, because a one-shard generation is always fully resident"))
	}
	if *memBudget > 0 && opts.Store == nil {
		fatal(errors.New("-mem-budget bounds how many shard files of the snapshot store keep their pages resident; without a usable store (-snapshot off, or the store failed to open) there is no residency to bound"))
	}
	if *shards > 1 && opts.Store == nil {
		fatal(errors.New("-shards cuts the generations of the snapshot store; without a usable store (-snapshot off, or the store failed to open) there is none to cut"))
	}

	t0 := time.Now()
	gen, err := serve.Load(*archiveDir, opts)
	if err != nil {
		fatal(err)
	}
	srv := serve.New(gen)
	mw := serve.Wrap(srv, serve.MiddlewareConfig{Gate: serve.GateConfig{MaxInflight: *maxInflight}})
	served := 0 // built in memory
	if ss := gen.Shards(); ss != nil {
		served = ss.NumShards()
	}
	log.Printf("dropscoped: loaded generation %s in %v (window %s, %d shards)",
		gen.DigestHex()[:12], time.Since(t0).Round(time.Millisecond), gen.Window(), served)

	reloader := serve.NewReloader(srv, serve.ReloadConfig{
		Dir:     *archiveDir,
		Opts:    opts,
		Watch:   *watch,
		OnEvent: func(msg string) { log.Print("dropscoped: ", msg) },
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go reloader.Run(ctx)

	if opts.Store != nil {
		scrubber := serve.NewScrubber(srv, serve.ScrubConfig{
			Store:    opts.Store,
			Reloader: reloader,
			OnEvent:  func(msg string) { log.Print("dropscoped: ", msg) },
		})
		go scrubber.Run(ctx)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	log.Printf("dropscoped: serving on http://%s", ln.Addr())
	httpSrv := serve.NewHTTPServer(mw, serve.HTTPConfig{})
	go func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fatal(err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGHUP, syscall.SIGINT, syscall.SIGTERM)
	for s := range sig {
		if s != syscall.SIGHUP {
			break
		}
		// Hand the reload to the supervisor: it retries failures under
		// backoff and keeps the current generation serving meanwhile. A
		// broken archive must never take the daemon down.
		reloader.Trigger()
	}

	// Graceful drain: stop the reload loop, answer 503 to new arrivals,
	// and give requests already admitted up to drainTimeout to finish
	// before the listener is torn down.
	cancel()
	mw.StartDrain()
	log.Printf("dropscoped: draining (up to %v)", drainTimeout)
	dctx, dcancel := context.WithTimeout(context.Background(), drainTimeout)
	defer dcancel()
	if err := httpSrv.Shutdown(dctx); err != nil {
		log.Printf("dropscoped: drain timed out, closing: %v", err)
		httpSrv.Close()
	}
}
