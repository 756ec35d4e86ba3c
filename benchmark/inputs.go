package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"dropscope/internal/archive"
	"dropscope/internal/mrt"
	"dropscope/internal/scenario"
	"dropscope/internal/timex"
)

// Archive sizing. The base world is the generator at scale 512; the
// amplified churn is cut to an exact per-collector record count so that
// every seed yields the same volume (scenario.AmplifyVolume draws each
// collector's count from a lognormal: 374k..737k records across seeds
// 1..4 at one call of 65536, which would make every timing a function of
// the seed).
const (
	worldScale      = 512
	baseChurn       = 76800 // per collector: 6 collectors -> 460 800 records
	baseChurnScale  = 16384 // one call covers the whole /24 pool (2^14)
	grownChurn      = 1024  // per collector: the day that arrives
	grownChurnScale = 2048
)

// inputs is everything a run derives from -seed: the archive the
// programs under test read, its grown successors, and nothing else.
// The programs only ever see the files.
type inputs struct {
	seed   int64
	window timex.Range
	base   string // A-base: full archive directory
	grown  string // A-grown1: grown mrt/, everything else hard-linked from A-base

	mrtBytes int64 // of A-base's mrt/
}

// amplifyExact appends exactly perCollector churn records to every
// collector stream: it amplifies the collectors still short of that
// until none is, then cuts each stream back. Churn is time-sorted per
// call, so the cut drops the latest-dated part of a collector's last
// call.
func amplifyExact(w *scenario.World, perCollector, scale int, seed int64) {
	before := make(map[string]int, len(w.MRT))
	for name, recs := range w.MRT {
		before[name] = len(recs)
	}
	all := w.Collectors
	defer func() { w.Collectors = all }()
	for call := int64(0); len(w.Collectors) > 0; call++ {
		scenario.AmplifyVolume(w, scale, seed*1009+call)
		short := w.Collectors[:0:0]
		for _, c := range w.Collectors {
			if len(w.MRT[c.Name])-before[c.Name] < perCollector {
				short = append(short, c)
			}
		}
		w.Collectors = short
	}
	for name, recs := range w.MRT {
		w.MRT[name] = recs[:before[name]+perCollector]
	}
}

// generateInputs writes A-base and A-grown1 under root.
func generateInputs(root string, seed int64) (*inputs, error) {
	cfg := scenario.DefaultParams()
	cfg.Scale = worldScale
	cfg.Seed = seed
	w, err := scenario.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate world: %w", err)
	}
	in := &inputs{seed: seed, window: cfg.Window, base: filepath.Join(root, "A-base")}
	amplifyExact(w, baseChurn, baseChurnScale, seed)
	if err := archive.Write(in.base, &archive.Bundle{
		MRT: w.MRT, DROP: w.DROP, SBL: w.SBL, IRR: w.IRR, RPKI: w.RPKI, RIR: w.RIR,
	}); err != nil {
		return nil, fmt.Errorf("write A-base: %w", err)
	}

	names := make([]string, 0, len(w.MRT))
	for name := range w.MRT {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st, err := os.Stat(filepath.Join(in.base, "mrt", name+".mrt"))
		if err != nil {
			return nil, err
		}
		in.mrtBytes += st.Size()
	}

	in.grown = filepath.Join(root, "A-grown1")
	if err := linkTree(in.base, in.grown, "mrt"); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(in.grown, "mrt"), 0o755); err != nil {
		return nil, err
	}
	tails := make(map[string]int, len(w.MRT))
	for name, recs := range w.MRT {
		tails[name] = len(recs)
	}
	amplifyExact(w, grownChurn, grownChurnScale, seed+1)
	for _, name := range names {
		err := appendMRT(
			filepath.Join(in.base, "mrt", name+".mrt"),
			filepath.Join(in.grown, "mrt", name+".mrt"),
			w.MRT[name][tails[name]:])
		if err != nil {
			return nil, fmt.Errorf("write A-grown1: %w", err)
		}
	}
	return in, nil
}

// appendMRT writes dst as the bytes of src followed by the encoded
// records — the byte-prefix superset an appended day produces.
func appendMRT(src, dst string, recs []mrt.Record) (err error) {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := out.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriterSize(out, 1<<20)
	if _, err := io.Copy(bw, in); err != nil {
		return err
	}
	mw := mrt.NewWriter(bw)
	for _, rec := range recs {
		if err := mw.Write(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// cloneTree recreates src's directories under dst and hands every
// regular file to clone, skipping the top-level directory named skip
// (none when empty).
func cloneTree(src, dst, skip string, clone func(from, to string) error) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if skip != "" && rel == skip {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		return clone(path, filepath.Join(dst, rel))
	})
}

// linkTree hard-links src's files into dst, all but the directory skip.
// The archives are never modified in place, so sharing inodes is safe
// and costs no copy.
func linkTree(src, dst, skip string) error { return cloneTree(src, dst, skip, os.Link) }

// copyTree copies a directory tree of regular files.
func copyTree(src, dst string) error { return cloneTree(src, dst, "", copyFile) }

// copyFile copies src to dst, replacing it.
func copyFile(src, dst string) (err error) {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := out.Close(); err == nil {
			err = cerr
		}
	}()
	_, err = io.Copy(out, in)
	return err
}
