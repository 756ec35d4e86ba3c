// Command dropscoped is the long-lived query daemon over a study
// archive: it loads the archive once (memory-mapping the persistent
// index snapshot when it matches), then answers the paper's per-prefix
// questions over HTTP — /v1/visibility, /v1/rov, /v1/drop, /v1/origins,
// /v1/figures/{day} — plus /healthz and /metrics.
//
// Usage:
//
//	dropscoped -archive DIR [-listen ADDR] [-snapshot DIR|off] [-first DAY] [-last DAY]
//	           [-shards N] [-mem-budget N] [-delta=false]
//	           [-workers N] [-max-skip N] [-max-inflight N] [-queue N] [-queue-wait D]
//	           [-request-timeout D] [-watch D] [-drain-timeout D] [-retain N]
//	           [-scrub] [-scrub-chunk N] [-scrub-interval D] [-scrub-pass-interval D]
//	           [-read-header-timeout D] [-read-timeout D] [-write-timeout D] [-idle-timeout D]
//
// The daemon serves behind an overload-resilient request path: a
// bounded-inflight admission gate with a short wait queue (excess load
// is shed with 503 + Retry-After), per-request deadlines, panic
// isolation, and an http.Server with every timeout set (slowloris
// clients are cut at -read-header-timeout).
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
// Reloads are incremental by default (-delta): when the archive grew
// append-only since the served generation — new bytes at the MRT
// tails, old bytes untouched — only the appended bytes are decoded,
// merged onto the served index, and persisted as the new generation;
// days already ingested are never re-decoded. Responses are
// byte-identical to a cold rebuild's, delta reloads are counted in
// /metrics as delta_reloads_total, and any non-append change (a
// rewritten file, a removed collector) falls back to a cold rebuild.
//
// The snapshot directory is a crash-safe generation store, the same
// layout dropscope -index-cache keeps: one directory per generation
// (gen-<digest>/, K shard snapshots and the shards.manifest that
// publishes them; a monolith is K = 1), written durably (fsync, atomic
// rename, directory sync), recorded in an append-only checksummed
// manifest journal, and swept and reconciled at startup, so a crash at
// any point of a write leaves either the old or the new complete
// generation, or none — never garbage. A background scrubber (-scrub,
// on by default) continuously re-verifies the live generation's shard
// files against their checksums; on a mismatch the daemon reports
// itself degraded, journals the generation corrupt so it is never
// re-adopted, and cold-rebuilds a replacement through the reload
// supervisor. Degraded, never down.
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
// how many shards stay memory-mapped at once: cold ranges fault back
// in on first touch and the least recently used shard is evicted, so
// an archive larger than RAM serves from bounded residency; the budget
// bounds shard files of the snapshot store, so it is refused without
// -shards 2 or more and without a store. The scrubber verifies shard
// files individually, and a damaged shard degrades only its prefix
// range (visible per shard in /healthz) while the reload supervisor
// rebuilds.
//
// SIGINT/SIGTERM drain gracefully: new arrivals answer 503 while
// requests already admitted run to completion, bounded by
// -drain-timeout.
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dropscoped:", err)
	os.Exit(1)
}

func main() {
	var (
		archiveDir = flag.String("archive", "", "study archive directory (required)")
		listen     = flag.String("listen", "127.0.0.1:8434", "listen address")
		snapshot   = flag.String("snapshot", "auto", `index snapshot directory ("auto" = ARCHIVE/ribsnap, "off" disables)`)
		first      = flag.String("first", "", "window first day (default: the study default)")
		last       = flag.String("last", "", "window last day (default: the study default)")
		workers    = flag.Int("workers", 0, "RIB and text-archive loading workers (0 = GOMAXPROCS)")
		maxSkip    = flag.Int("max-skip", 0, "per-collector skip budget (0 = default, negative = unlimited)")
		shards     = flag.Int("shards", 0, "serve from a prefix-range sharded index cut into N pieces (0/1 = single index)")
		memBudget  = flag.Int("mem-budget", 0, "with -shards: max shards kept memory-mapped at once (0 = all resident; cold ranges fault back in)")
		deltaOn    = flag.Bool("delta", true, "incremental reloads: when the archive grew append-only since the served generation, decode only the appended bytes and merge onto it instead of rebuilding cold (rewritten archives fall back cold)")

		maxInflight = flag.Int("max-inflight", 256, "admission: max concurrently executing requests")
		queue       = flag.Int("queue", 0, "admission: max queued requests waiting for a slot (0 = max-inflight)")
		queueWait   = flag.Duration("queue-wait", 100*time.Millisecond, "admission: max time a queued request waits before it is shed")
		reqTimeout  = flag.Duration("request-timeout", 5*time.Second, "deadline for allocating endpoints (origins, figures); negative disables")

		readHeaderTimeout = flag.Duration("read-header-timeout", 5*time.Second, "http: slowloris bound on reading request headers")
		readTimeout       = flag.Duration("read-timeout", 30*time.Second, "http: bound on reading a whole request")
		writeTimeout      = flag.Duration("write-timeout", 30*time.Second, "http: bound on writing a whole response")
		idleTimeout       = flag.Duration("idle-timeout", 120*time.Second, "http: bound on idle keep-alive connections")

		watch        = flag.Duration("watch", 0, "poll the archive directory at this interval and reload on change (0 disables)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown: max time to drain in-flight requests")

		retain        = flag.Int("retain", 0, "snapshot store: retired generations kept on disk (0 = default, negative = all)")
		scrub         = flag.Bool("scrub", true, "background scrub: continuously re-verify the live snapshot against its checksums")
		scrubChunk    = flag.Int("scrub-chunk", 1<<20, "scrub: payload bytes verified per step")
		scrubInterval = flag.Duration("scrub-interval", 50*time.Millisecond, "scrub: pause between steps (the rate limit)")
		scrubPass     = flag.Duration("scrub-pass-interval", time.Minute, "scrub: idle time between completed passes")
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
		MaxSkip:   *maxSkip,
		Workers:   *workers,
		Shards:    *shards,
		MemBudget: *memBudget,
		Delta:     *deltaOn,
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
		store, serr := ribsnap.OpenStore(snapDir, ribsnap.StoreOptions{Retain: *retain})
		if serr != nil {
			log.Printf("dropscoped: snapshot store unavailable, running cold: %v", serr)
		} else {
			opts.Store = store
		}
	}

	if *memBudget > 0 && *shards < 2 {
		fatal(errors.New("-mem-budget bounds how many shards stay mapped; it needs -shards 2 or more, because a one-shard generation is always fully resident"))
	}
	if *memBudget > 0 && opts.Store == nil {
		fatal(errors.New("-mem-budget bounds how many shard files of the snapshot store stay mapped; without a usable store (-snapshot off, or the store failed to open) there is no residency to bound"))
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
	mw := serve.Wrap(srv, serve.MiddlewareConfig{
		Gate: serve.GateConfig{
			MaxInflight: *maxInflight,
			MaxQueue:    *queue,
			QueueWait:   *queueWait,
		},
		RequestTimeout: *reqTimeout,
	})
	served := 0 // built in memory
	if ss := gen.Shards(); ss != nil {
		served = ss.NumShards()
	}
	log.Printf("dropscoped: loaded generation %s in %v (window %s, %d shards)",
		gen.DigestHex()[:12], time.Since(t0).Round(time.Millisecond), gen.Window(), served)

	httpCfg := serve.HTTPConfig{
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	reloader := serve.NewReloader(srv, serve.ReloadConfig{
		Dir:     *archiveDir,
		Opts:    opts,
		Watch:   *watch,
		OnEvent: func(msg string) { log.Print("dropscoped: ", msg) },
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go reloader.Run(ctx)

	if *scrub && opts.Store != nil {
		scrubber := serve.NewScrubber(srv, serve.ScrubConfig{
			Chunk:        *scrubChunk,
			Interval:     *scrubInterval,
			PassInterval: *scrubPass,
			Store:        opts.Store,
			Reloader:     reloader,
			OnEvent:      func(msg string) { log.Print("dropscoped: ", msg) },
		})
		go scrubber.Run(ctx)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	log.Printf("dropscoped: serving on http://%s", ln.Addr())
	httpSrv := serve.NewHTTPServer(mw, httpCfg)
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
	// and give requests already admitted up to -drain-timeout to finish
	// before the listener is torn down.
	cancel()
	mw.StartDrain()
	log.Printf("dropscoped: draining (up to %v)", *drainTimeout)
	dctx, dcancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer dcancel()
	if err := httpSrv.Shutdown(dctx); err != nil {
		log.Printf("dropscoped: drain timed out, closing: %v", err)
		httpSrv.Close()
	}
}
