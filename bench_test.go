package dropscope

// The micro-benchmark no benchmark/ metric covers: the synthetic world
// generator (the RTR cache sync is internal/rtr's BenchmarkRTRSync).
// Everything else that is timed — the load routes, each experiment, the
// daemon — is a metric of `sh benchmark/run.sh` (benchmark/README.md
// lists them).

import (
	"testing"

	"dropscope/internal/scenario"
)

// BenchmarkWorldGeneration measures the synthetic-world generator alone
// at the default scale.
func BenchmarkWorldGeneration(b *testing.B) {
	cfg := scenario.DefaultParams()
	cfg.Scale = 512
	for i := 0; i < b.N; i++ {
		if _, err := scenario.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
