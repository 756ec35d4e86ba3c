package serve

import (
	"fmt"

	"dropscope/internal/ingest"
	"dropscope/internal/loader"
)

// LoadOptions configures Load: the shared loader's options, field for
// field. Daemon loads are always lenient — a damaged collector
// quarantines, it does not take the service down — so a nil Health
// means a fresh accumulator, not a strict load; the reload supervisor
// passes one seeded with the retry count that preceded a successful
// reload, so the generation's own health report records what it came
// to be.
type LoadOptions = loader.Options

// Load builds one serving generation from the archive directory through
// internal/loader — delta-merged, warm from the cache, or cold, exactly
// as a batch load of the same archive would be. The returned generation
// always carries the archive digest: it is the identity every response
// reports.
func Load(dir string, opts LoadOptions) (*Generation, error) {
	if opts.Health == nil {
		opts.Health = ingest.NewHealth()
	}
	l, err := loader.Load(dir, opts)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	g := newGeneration(l.Snapshot, l.Shards, l.Pipeline)
	g.deltaBuilt = l.Route == loader.Delta
	return g, nil
}
