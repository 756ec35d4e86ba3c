// Command synthgen generates the synthetic world and writes every archive
// to a directory in its native on-disk format (MRT, DROP text, RPSL
// journal, ROA CSVs, delegated-extended stats).
//
// Usage:
//
//	synthgen -dir OUT [-scale N] [-seed N] [-volume N]
//
// -volume N switches on RouteViews-realistic volume amplification: the
// MRT streams additionally carry background churn whose per-collector
// record counts are drawn from a seeded lognormal distribution around
// N — multi-day announce/withdraw flaps of synthetic prefixes disjoint
// from everything the study measures. The analysis results over the
// amplified archives are unchanged; the index build cost (and the
// payoff of `dropscope -shards` / `dropscoped -shards`) scales with N.
package main

import (
	"flag"
	"fmt"
	"os"

	"dropscope"
)

func main() {
	var (
		dir    = flag.String("dir", "", "output directory (required)")
		scale  = flag.Int("scale", 64, "background population divisor: the paper's counts / N, N >= 7 (the generator's floor)")
		seed   = flag.Int64("seed", 1, "deterministic world seed")
		volume = flag.Int("volume", 0, "MRT volume amplification: per-collector churn record target, lognormal-distributed (0 = off)")
	)
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "synthgen: -dir is required")
		flag.Usage()
		os.Exit(2)
	}

	cfg := dropscope.DefaultConfig()
	cfg.Scale = *scale
	cfg.Seed = *seed
	study, err := dropscope.NewStudy(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var vrecs, vpfx int
	if *volume > 0 {
		vrecs, vpfx = study.AmplifyVolume(*volume, *seed)
	}
	if err := study.WriteArchives(*dir); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("world seed=%d scale=%d written to %s\n", *seed, *scale, *dir)
	fmt.Printf("  %d DROP listings, %d collectors\n",
		len(study.World.Truth.Listings), len(study.World.Collectors))
	if *volume > 0 {
		fmt.Printf("  volume amplification: %d churn records over %d synthetic prefixes\n", vrecs, vpfx)
	}
}
