package rtr

import (
	"net"
	"testing"

	"dropscope/internal/scenario"
)

// BenchmarkRTRSync measures a full RPKI-to-Router reset handshake over an
// in-memory pipe: the cache streams its VRP set to the router.
func BenchmarkRTRSync(b *testing.B) {
	cfg := scenario.DefaultParams()
	cfg.Scale = 256
	w, err := scenario.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	vrps := SnapshotVRPs(w.RPKI, cfg.Window.Last, nil)
	if len(vrps) == 0 {
		b.Fatal("no VRPs")
	}
	b.SetBytes(int64(20 * len(vrps))) // one 20-byte PDU per VRP
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv := NewServer(1, vrps)
		client, server := net.Pipe()
		go func() { _ = srv.HandleConn(server) }()
		c := &reader{conn: client}
		if err := c.reset(); err != nil {
			b.Fatal(err)
		}
		if len(c.vrps) != len(vrps) {
			b.Fatal("short sync")
		}
		client.Close()
	}
}
