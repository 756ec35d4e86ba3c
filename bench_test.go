package dropscope

// The two micro-benchmarks no benchmark/ metric covers: the synthetic
// world generator and an RTR cache sync. Everything else that is timed
// — the load routes, each experiment, the daemon — is a metric of
// `sh benchmark/run.sh` (benchmark/README.md lists them).

import (
	"net"
	"testing"

	"dropscope/internal/rtr"
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

// BenchmarkRTRSync measures a full RPKI-to-Router reset handshake over an
// in-memory pipe: the cache streams its VRP set to the router.
func BenchmarkRTRSync(b *testing.B) {
	cfg := scenario.DefaultParams()
	cfg.Scale = 256
	w, err := scenario.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	vrps := rtr.SnapshotVRPs(w.RPKI, cfg.Window.Last, nil)
	if len(vrps) == 0 {
		b.Fatal("no VRPs")
	}
	b.SetBytes(int64(20 * len(vrps))) // one 20-byte PDU per VRP
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv := rtr.NewServer(1, vrps)
		client, server := net.Pipe()
		go func() { _ = srv.HandleConn(server) }()
		c := rtr.NewClient(client)
		if err := c.Reset(); err != nil {
			b.Fatal(err)
		}
		if len(c.VRPs) != len(vrps) {
			b.Fatal("short sync")
		}
		client.Close()
	}
}
