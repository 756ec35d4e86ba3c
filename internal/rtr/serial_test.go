package rtr

import (
	"net"
	"testing"

	"dropscope/internal/netx"
)

func TestSerialBefore(t *testing.T) {
	cases := []struct {
		s1, s2 uint32
		want   bool
	}{
		{1, 2, true},
		{2, 1, false},
		{5, 5, false},
		{0xFFFFFFFF, 0, true}, // wraparound: 0 is one after max
		{0, 0xFFFFFFFF, false},
		{0xFFFFFFFE, 2, true},
		{2, 0xFFFFFFFE, false},
		{0, 1 << 31, false}, // RFC 1982 undefined pair: false both ways
		{1 << 31, 0, false},
	}
	for _, c := range cases {
		if got := SerialBefore(c.s1, c.s2); got != c.want {
			t.Errorf("SerialBefore(%#x, %#x) = %v, want %v", c.s1, c.s2, got, c.want)
		}
	}
}

// TestPollSurvivesSerialWraparound pins the RFC 1982 comparison end to
// end: a cache whose serial wraps past 0xFFFFFFFF must still serve an
// incremental delta to a router at a pre-wrap serial, not force a cache
// reset (or, worse with plain comparisons, replay nothing at all).
func TestPollSurvivesSerialWraparound(t *testing.T) {
	srv := NewServer(7, sampleVRPs())
	srv.mu.Lock()
	srv.serial = 0xFFFFFFFE
	srv.mu.Unlock()

	extra1 := VRP{Prefix: netx.MustParsePrefix("198.51.100.0/24"), MaxLength: 24, ASN: 64501}
	extra2 := VRP{Prefix: netx.MustParsePrefix("203.0.113.0/24"), MaxLength: 24, ASN: 64502}
	srv.Update(append(sampleVRPs(), extra1))         // serial 0xFFFFFFFF
	srv.Update(append(sampleVRPs(), extra1, extra2)) // serial wraps to 0

	if got := srv.Serial(); got != 0 {
		t.Fatalf("server serial = %#x, want wrapped 0", got)
	}

	client, server := net.Pipe()
	defer client.Close()
	go func() { _ = srv.HandleConn(server) }()

	// An empty starting VRP set distinguishes the two outcomes: an
	// incremental poll applies only the two announced deltas, a full
	// reset would deliver all five VRPs.
	c := &reader{conn: client, sessionID: 7, serial: 0xFFFFFFFE}
	if err := c.poll(); err != nil {
		t.Fatal(err)
	}
	if c.serial != 0 {
		t.Errorf("reader serial = %#x, want 0", c.serial)
	}
	if len(c.vrps) != 2 {
		t.Fatalf("got %d VRPs, want 2 incremental announcements (a reset would deliver %d)",
			len(c.vrps), len(sampleVRPs())+2)
	}
}
