// Command dropscope runs the full study end to end: it generates the
// synthetic world (or loads archives from a directory), runs every
// analysis, and prints each of the paper's tables and figures.
//
// Usage:
//
//	dropscope [-scale N] [-seed N] [-load DIR] [-save DIR] [-json] [-serial] [-strict] [-max-skip N]
//	          [-index-cache DIR|auto|off] [-append] [-shards N] [-cpuprofile FILE] [-memprofile FILE] [-trace FILE]
//
// By default RIB loading and the experiment suite run in parallel across
// the available CPUs; -serial forces the single-threaded reference path.
// Both paths print byte-identical reports.
//
// Archives loaded with -load are read leniently: corrupt records and
// malformed lines are skipped and counted, collectors damaged beyond the
// -max-skip budget are quarantined, and the report gains a data-health
// section. -strict instead fails on the first damaged record, naming its
// record index and byte offset. Over undamaged archives the two modes
// print byte-identical reports.
//
// Loads warm-start from a persistent index cache: the default
// -index-cache auto keeps a snapshot store in DIR/ribsnap next to the
// archives loaded with -load DIR — a manifest journal and one
// gen-<digest>/ directory of shard snapshots per archive state, keyed
// on a digest of the MRT bytes, the layout dropscoped -snapshot keeps.
// A matching generation skips MRT decode and index construction
// entirely (the dominant load cost); a missing, stale, or damaged one
// falls back to a cold build and is rewritten. Reports are
// byte-identical either way. -index-cache off disables the cache; any
// other value names an explicit store directory.
//
// -append extends the cache to growing archives: when the MRT files
// gained bytes at their tails since the cached generation was written
// (old bytes untouched), only the appended bytes are decoded and merged
// onto its index — days already ingested are never re-decoded — and the
// merged index becomes the next generation. The report is
// byte-identical to a cold rebuild; any non-append change falls back to
// one.
//
// -shards N cuts the generations the run writes into N prefix-range
// shards and serves such a generation sharded; it needs the index
// cache, and takes effect at the next generation written, because a
// cached generation is served in the shard count it was written with.
//
// The profiling flags wrap the whole run: -cpuprofile and -memprofile
// write pprof profiles (the heap profile is taken at exit, after a GC),
// -trace writes a runtime execution trace. Because a warm start shifts
// work from decode-time CPU to a file mapping, comparing cold and warm
// heap profiles of the same archive (two runs, -memprofile each) is the
// quickest way to see what the cache saves; TestLoadPathAllocs (root
// package) pins the allocation side per route. Inspect profiles with
// `go tool pprof` / `go tool trace`.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"

	"dropscope"
)

// profiling starts the profilers selected on the command line and
// returns a stop function to run at exit. Any profile that cannot be
// started is fatal: a run whose requested profile is silently missing
// wastes the whole measurement.
func profiling(cpuprofile, memprofile, traceFile string) func() {
	var stops []func()
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			fatal(err)
		}
		if err := trace.Start(f); err != nil {
			fatal(err)
		}
		stops = append(stops, func() {
			trace.Stop()
			f.Close()
		})
	}
	return func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
		if memprofile != "" {
			f, err := os.Create(memprofile)
			if err != nil {
				fatal(err)
			}
			runtime.GC() // settle live-heap numbers before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
			f.Close()
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func main() {
	var (
		scale    = flag.Int("scale", 64, "background population divisor: the paper's counts / N, N >= 7 (the generator's floor)")
		seed     = flag.Int64("seed", 1, "deterministic world seed")
		load     = flag.String("load", "", "load archives from this directory instead of generating")
		save     = flag.String("save", "", "after generating, persist archives to this directory")
		asJSON   = flag.Bool("json", false, "emit the machine-readable summary instead of the text report")
		serial   = flag.Bool("serial", false, "disable all parallelism: serial RIB loading and experiment execution")
		strict   = flag.Bool("strict", false, "with -load: fail on the first corrupt record instead of skipping leniently")
		maxSkip  = flag.Int("max-skip", 0, "with -load: per-collector skip budget before quarantine (0 = default 100, negative = unlimited)")
		idxCache = flag.String("index-cache", "auto", "with -load: index snapshot directory for warm starts; auto = DIR/ribsnap under -load, off = disabled")
		appendI  = flag.Bool("append", false, "with -load and an index cache: when the archives grew append-only since the cached snapshot, ingest only the appended bytes and merge onto the snapshot instead of rebuilding cold (output is byte-identical; rewritten archives fall back cold)")
		shards   = flag.Int("shards", 0, "with -load: serve from a prefix-range sharded index cut into N pieces (0/1 = single index; output is byte-identical)")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
		traceFile  = flag.String("trace", "", "write a runtime execution trace to this file")
	)
	flag.Parse()

	stop := profiling(*cpuprofile, *memprofile, *traceFile)
	err := run(*scale, *seed, *load, *save, *asJSON, *serial, *strict, *maxSkip, *idxCache, *appendI, *shards)
	stop()
	if err != nil {
		fatal(err)
	}
}

// snapshotDir resolves the -index-cache flag against the -load directory.
func snapshotDir(idxCache, load string) string {
	switch idxCache {
	case "off":
		return ""
	case "auto":
		return filepath.Join(load, "ribsnap")
	default:
		return idxCache
	}
}

func run(scale int, seed int64, load, save string, asJSON, serial, strict bool, maxSkip int, idxCache string, appendIngest bool, shards int) error {
	cfg := dropscope.DefaultConfig()
	cfg.Scale = scale
	cfg.Seed = seed

	var (
		study *dropscope.Study
		err   error
	)
	if load != "" {
		if shards > 1 && idxCache == "off" {
			return errors.New("-shards cuts the generations the index cache writes; with -index-cache off there is none to cut")
		}
		opts := dropscope.IngestOptions{
			Strict:      strict,
			MaxSkip:     maxSkip,
			SnapshotDir: snapshotDir(idxCache, load),
			Append:      appendIngest,
			Shards:      shards,
		}
		if serial {
			opts.Workers = 1
		}
		study, err = dropscope.LoadStudyWithOptions(load, cfg, opts)
	} else if serial {
		study, err = dropscope.NewStudySerial(cfg)
	} else {
		study, err = dropscope.NewStudy(cfg)
	}
	if err != nil {
		return err
	}
	defer study.Close()
	if save != "" {
		if err := study.WriteArchives(save); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "archives written to %s\n", save)
	}
	experiments := study.Results
	if serial {
		experiments = study.ResultsSerial
	}
	results := experiments()
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(results.Summary())
	}
	return results.Render(os.Stdout)
}
