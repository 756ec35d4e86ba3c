package rtr

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"testing"

	"dropscope/internal/bgp"
	"dropscope/internal/netx"
	"dropscope/internal/rpki"
	"dropscope/internal/timex"
)

func sampleVRPs() []VRP {
	return []VRP{
		{Prefix: netx.MustParsePrefix("132.255.0.0/22"), MaxLength: 22, ASN: 263692},
		{Prefix: netx.MustParsePrefix("10.0.0.0/8"), MaxLength: 24, ASN: 64500},
		{Prefix: netx.MustParsePrefix("192.0.2.0/24"), MaxLength: 32, ASN: bgp.AS0},
	}
}

func TestPDURoundTrip(t *testing.T) {
	pdus := []PDU{
		&SerialNotify{SessionID: 7, Serial: 42},
		&SerialQuery{SessionID: 7, Serial: 41},
		&ResetQuery{},
		&CacheResponse{SessionID: 7},
		&IPv4Prefix{Announce: true, VRP: sampleVRPs()[0]},
		&IPv4Prefix{Announce: false, VRP: sampleVRPs()[1]},
		&EndOfData{SessionID: 7, Serial: 42, Refresh: 3600, Retry: 600, Expire: 7200},
		&CacheReset{},
		&ErrorReport{Code: ErrNoDataAvailable, Text: "nothing yet"},
	}
	var buf bytes.Buffer
	for _, p := range pdus {
		if err := WritePDU(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range pdus {
		got, err := ReadPDU(&buf)
		if err != nil {
			t.Fatalf("pdu %d: %v", i, err)
		}
		if got.pduType() != want.pduType() {
			t.Fatalf("pdu %d: type %d != %d", i, got.pduType(), want.pduType())
		}
		switch w := want.(type) {
		case *IPv4Prefix:
			g := got.(*IPv4Prefix)
			if g.Announce != w.Announce || g.VRP != w.VRP {
				t.Errorf("pdu %d: %+v != %+v", i, g, w)
			}
		case *EndOfData:
			g := got.(*EndOfData)
			if *g != *w {
				t.Errorf("pdu %d: %+v != %+v", i, g, w)
			}
		case *ErrorReport:
			g := got.(*ErrorReport)
			if g.Code != w.Code || g.Text != w.Text {
				t.Errorf("pdu %d: %+v != %+v", i, g, w)
			}
		}
	}
	if _, err := ReadPDU(&buf); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestReadPDURejectsBadInput(t *testing.T) {
	cases := map[string][]byte{
		"bad version":   {9, TypeResetQuery, 0, 0, 0, 0, 0, 8},
		"short length":  {Version, TypeResetQuery, 0, 0, 0, 0, 0, 4},
		"unknown type":  {Version, 99, 0, 0, 0, 0, 0, 8},
		"host bits set": {Version, TypeIPv4Prefix, 0, 0, 0, 0, 0, 20, 1, 24, 24, 0, 192, 0, 2, 1, 0, 0, 0, 5},
		"maxlen < bits": {Version, TypeIPv4Prefix, 0, 0, 0, 0, 0, 20, 1, 24, 20, 0, 192, 0, 2, 0, 0, 0, 0, 5},
	}
	for name, raw := range cases {
		if _, err := ReadPDU(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestPDUFuzzSafety(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var buf bytes.Buffer
	for _, p := range []PDU{&IPv4Prefix{Announce: true, VRP: sampleVRPs()[0]}, &EndOfData{Serial: 9}} {
		_ = WritePDU(&buf, p)
	}
	wire := buf.Bytes()
	for i := 0; i < 3000; i++ {
		mut := append([]byte(nil), wire...)
		for j := 0; j < 1+rng.Intn(4); j++ {
			mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
		}
		r := bytes.NewReader(mut)
		for {
			if _, err := ReadPDU(r); err != nil {
				break
			}
		}
	}
}

func TestResetHandshakeOverPipe(t *testing.T) {
	srv := NewServer(99, sampleVRPs())
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.HandleConn(server)
	}()

	c := &reader{conn: client}
	if err := c.reset(); err != nil {
		t.Fatal(err)
	}
	if c.sessionID != 99 || c.serial != 1 {
		t.Errorf("session=%d serial=%d", c.sessionID, c.serial)
	}
	if len(c.vrps) != 3 {
		t.Fatalf("VRPs = %+v", c.vrps)
	}

	// Router-side validation using the synced VRPs.
	if v := validate(c.vrps, netx.MustParsePrefix("132.255.0.0/22"), 263692); v != rpki.Valid {
		t.Errorf("owner announcement = %v", v)
	}
	if v := validate(c.vrps, netx.MustParsePrefix("132.255.0.0/22"), 50509); v != rpki.Invalid {
		t.Errorf("forged origin = %v", v)
	}
	if v := validate(c.vrps, netx.MustParsePrefix("192.0.2.0/24"), 64500); v != rpki.Invalid {
		t.Errorf("AS0-covered announcement = %v", v)
	}
	if v := validate(c.vrps, netx.MustParsePrefix("203.0.113.0/24"), 64500); v != rpki.NotFound {
		t.Errorf("uncovered announcement = %v", v)
	}

	client.Close()
	<-done
}

func TestSerialQueryFlow(t *testing.T) {
	srv := NewServer(7, sampleVRPs())
	client, server := net.Pipe()
	go func() { _ = srv.HandleConn(server) }()
	defer client.Close()

	c := &reader{conn: client}
	if err := c.reset(); err != nil {
		t.Fatal(err)
	}

	// Poll while current: empty delta, same serial.
	if err := c.poll(); err != nil {
		t.Fatal(err)
	}
	if c.serial != 1 || len(c.vrps) != 3 {
		t.Errorf("after current poll: serial=%d vrps=%d", c.serial, len(c.vrps))
	}

	// Cache updates: the next poll receives the incremental delta.
	srv.Update(sampleVRPs()[:1])
	if err := c.poll(); err != nil {
		t.Fatal(err)
	}
	if c.serial != 2 || len(c.vrps) != 1 {
		t.Errorf("after update poll: serial=%d vrps=%d", c.serial, len(c.vrps))
	}
}

func TestSessionMismatchReported(t *testing.T) {
	srv := NewServer(7, nil)
	client, server := net.Pipe()
	go func() { _ = srv.HandleConn(server) }()
	defer client.Close()

	if err := WritePDU(client, &SerialQuery{SessionID: 1234, Serial: 1}); err != nil {
		t.Fatal(err)
	}
	pdu, err := ReadPDU(client)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := pdu.(*ErrorReport); !ok {
		t.Errorf("expected error report, got %T", pdu)
	}
}

func TestServeOverTCP(t *testing.T) {
	srv := NewServer(3, sampleVRPs())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := &reader{conn: conn}
	if err := c.reset(); err != nil {
		t.Fatal(err)
	}
	if len(c.vrps) != 3 {
		t.Errorf("VRPs over TCP = %d", len(c.vrps))
	}
	conn.Close()

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-serveDone; err != nil {
		t.Errorf("serve returned %v", err)
	}
}

func TestSnapshotVRPs(t *testing.T) {
	var a rpki.Archive
	d := timex.MustParseDay("2021-01-01")
	roas := []rpki.ROA{
		{Prefix: netx.MustParsePrefix("10.0.0.0/8"), MaxLength: 24, ASN: 64500, TA: rpki.TARIPE},
		{Prefix: netx.MustParsePrefix("10.0.0.0/8"), MaxLength: 24, ASN: 64500, TA: rpki.TAARIN}, // dup VRP, distinct TA
		{Prefix: netx.MustParsePrefix("192.0.2.0/24"), MaxLength: 32, ASN: bgp.AS0, TA: rpki.TALACNICAS0},
	}
	for _, r := range roas {
		if err := a.Add(d, r); err != nil {
			t.Fatal(err)
		}
	}
	all := SnapshotVRPs(&a, d+1, nil)
	if len(all) != 2 {
		t.Errorf("deduplicated VRPs = %+v", all)
	}
	prodOnly := SnapshotVRPs(&a, d+1, rpki.DefaultTALs)
	if len(prodOnly) != 1 {
		t.Errorf("production-TAL VRPs = %+v", prodOnly)
	}
	if before := SnapshotVRPs(&a, d-1, nil); len(before) != 0 {
		t.Errorf("VRPs before creation = %+v", before)
	}
}

func TestIncrementalDelta(t *testing.T) {
	vrps := sampleVRPs()
	srv := NewServer(5, vrps)
	client, server := net.Pipe()
	go func() { _ = srv.HandleConn(server) }()
	defer client.Close()

	c := &reader{conn: client}
	if err := c.reset(); err != nil {
		t.Fatal(err)
	}

	// Version 2: drop one VRP, add one.
	added := VRP{Prefix: netx.MustParsePrefix("203.0.113.0/24"), MaxLength: 24, ASN: 65000}
	v2 := append(append([]VRP{}, vrps[1:]...), added)
	srv.Update(v2)
	if err := c.poll(); err != nil {
		t.Fatal(err)
	}
	if c.serial != 2 {
		t.Errorf("serial = %d", c.serial)
	}
	if len(c.vrps) != 3 {
		t.Fatalf("VRPs after delta = %+v", c.vrps)
	}
	found := false
	for _, v := range c.vrps {
		if v == vrps[0] {
			t.Errorf("withdrawn VRP still present: %+v", v)
		}
		if v == added {
			found = true
		}
	}
	if !found {
		t.Error("announced VRP missing after delta")
	}

	// Several versions at once coalesce; cancelled changes elide.
	v3 := append([]VRP{}, v2...) // re-add vrps[0]
	v3 = append(v3, vrps[0])
	srv.Update(v3)
	srv.Update(v2) // and remove it again: net change vs serial 2 is zero
	if err := c.poll(); err != nil {
		t.Fatal(err)
	}
	if c.serial != 4 || len(c.vrps) != 3 {
		t.Errorf("after coalesced delta: serial=%d vrps=%d", c.serial, len(c.vrps))
	}
}

func TestDeltaHistoryEviction(t *testing.T) {
	srv := NewServer(5, sampleVRPs())
	client, server := net.Pipe()
	go func() { _ = srv.HandleConn(server) }()
	defer client.Close()

	c := &reader{conn: client}
	if err := c.reset(); err != nil {
		t.Fatal(err)
	}
	// Push far more versions than the retained history.
	cur := sampleVRPs()
	for i := 0; i < 20; i++ {
		cur = append(cur, VRP{Prefix: netx.PrefixFrom(netx.AddrFrom4(10, 99, byte(i), 0), 24), MaxLength: 24, ASN: 65001})
		srv.Update(append([]VRP{}, cur...))
	}
	// A reader at serial 1 is far behind: the server forces a reset,
	// and the reader recovers the full current set.
	if err := c.poll(); err != nil {
		t.Fatal(err)
	}
	if c.serial != 21 || len(c.vrps) != len(cur) {
		t.Errorf("after reset recovery: serial=%d vrps=%d want %d", c.serial, len(c.vrps), len(cur))
	}
}

// TestEndOfDataIntervals pins the timers a cache advertises, which
// rtrd sets from its -refresh, -retry and -expire flags: End of Data
// carries the RFC 8210 suggested values until SetIntervals, and the set
// values on every answer after it, incremental or full.
func TestEndOfDataIntervals(t *testing.T) {
	srv := NewServer(7, sampleVRPs())
	client, server := net.Pipe()
	go func() { _ = srv.HandleConn(server) }()
	defer client.Close()

	c := &reader{conn: client}
	if err := c.reset(); err != nil {
		t.Fatal(err)
	}
	if want := (Intervals{Refresh: 3600, Retry: 600, Expire: 7200}); c.intervals != want || DefaultIntervals != want {
		t.Errorf("default End of Data intervals = %+v (DefaultIntervals %+v), want %+v", c.intervals, DefaultIntervals, want)
	}

	set := Intervals{Refresh: 60, Retry: 300, Expire: 600}
	srv.SetIntervals(set)
	if err := c.poll(); err != nil {
		t.Fatal(err)
	}
	if c.intervals != set {
		t.Errorf("after SetIntervals, serial poll: End of Data intervals = %+v, want %+v", c.intervals, set)
	}
	if err := c.reset(); err != nil {
		t.Fatal(err)
	}
	if c.intervals != set {
		t.Errorf("after SetIntervals, reset: End of Data intervals = %+v, want %+v", c.intervals, set)
	}
}
