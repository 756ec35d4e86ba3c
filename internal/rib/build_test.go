package rib

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dropscope/internal/bgp"
	"dropscope/internal/ingest"
	"dropscope/internal/mrt"
)

// encode writes recs as MRT bytes.
func encode(t *testing.T, recs ...mrt.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// unsupported returns n empty records of an MRT type the reader does not
// decode: each is one decode-stage skip of a lenient reader and the
// error of a strict one.
func unsupported(n int) []byte {
	var out []byte
	for range n {
		var hdr [12]byte
		binary.BigEndian.PutUint32(hdr[0:], uint32(at(day0).Unix()))
		binary.BigEndian.PutUint16(hdr[4:], 12) // TABLE_DUMP (v1)
		binary.BigEndian.PutUint16(hdr[6:], 1)
		out = append(out, hdr[:]...)
	}
	return out
}

// badPeer is a RIB record that decodes but names a peer beyond the
// table: one apply-stage skip of a lenient load.
func badPeer() mrt.Record {
	return &mrt.RIBPrefix{When: at(day0), Prefix: pfx,
		Entries: []mrt.RIBEntry{{PeerIndex: 9, Attrs: bgp.Attrs{Path: bgp.Sequence(64500, 100)}}}}
}

// pooledReader is a stream's pooled reader, released when closed.
type pooledReader struct{ *mrt.Reader }

func (r pooledReader) Close() error { r.Release(); return nil }

// decoded streams raw through a pooled mrt.Reader, lenient when the
// build hands it a source — the way the loader streams archive files.
func decoded(name string, raw []byte) Stream {
	return Stream{Name: name, Open: func(src *ingest.Source) (RecordSource, error) {
		opts := []mrt.Option{mrt.ReuseRecords()}
		if src != nil {
			opts = append(opts, mrt.Lenient(), mrt.WithSource(src))
		}
		return pooledReader{mrt.NewReader(bytes.NewReader(raw), opts...)}, nil
	}}
}

// TestBuildQuarantineAccounting pins what a damaged collector's health
// source reports: decode-stage skips over the budget quarantine it with
// only those counted, even though its unappliable records were met
// while decoding; within the budget its apply-stage skips are added, and
// the sum decides.
func TestBuildQuarantineAccounting(t *testing.T) {
	const budget = 2
	clean := []mrt.Record{peerTable(), announce(day0, 0, bgp.Sequence(64500, 100), pfx)}
	for _, c := range []struct {
		decode, apply int
		quarantined   bool
	}{
		{decode: 3, apply: 2, quarantined: true},
		{decode: 1, apply: 2, quarantined: true},
		{decode: 1, apply: 1},
	} {
		t.Run(fmt.Sprintf("decode=%d/apply=%d", c.decode, c.apply), func(t *testing.T) {
			recs := []mrt.Record{peerTable()}
			for range c.apply {
				recs = append(recs, badPeer())
			}
			recs = append(recs, announce(day0+1, 1, bgp.Sequence(64501, 100), pfx))
			// Decode damage after the unappliable records: a load that
			// counted skips as it met them would see the apply-stage ones
			// first.
			raw := append(encode(t, recs...), unsupported(c.decode)...)
			for _, workers := range []int{1, 2} {
				h := ingest.NewHealth()
				ix, err := Build([]Stream{decoded("damaged", raw), decoded("clean", encode(t, clean...))}, day0+10, workers, h, budget)
				if err != nil {
					t.Fatal(err)
				}
				src := h.Source("mrt/damaged")
				var want ingest.Counters
				for range c.decode {
					want.Add(ingest.Unsupported)
				}
				if !c.quarantined || c.decode <= budget {
					for range c.apply {
						want.Add(ingest.Corrupt)
					}
				}
				if src.Skips != want || src.Records != uint64(len(recs)) || src.Quarantined != c.quarantined {
					t.Errorf("workers=%d: damaged source %+v, want skips %v, %d records, quarantined %v",
						workers, *src, want, len(recs), c.quarantined)
				}
				if note := fmt.Sprintf("%d skips exceed budget %d", want.Total(), budget); c.quarantined && src.Note != note {
					t.Errorf("workers=%d: note %q, want %q", workers, src.Note, note)
				}
				if wantPeers := 2 + 2*btoi(!c.quarantined); ix.NumPeers() != wantPeers {
					t.Errorf("workers=%d: %d peers merged, want %d", workers, ix.NumPeers(), wantPeers)
				}
				if s := h.Source("mrt/clean"); !s.Clean() || s.Records != uint64(len(clean)) {
					t.Errorf("workers=%d: clean source %+v", workers, *s)
				}
			}
		})
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestBuildStrictErrorOrder pins which error a strict build reports: a
// stream that fails to decode — the first in name order, even past a
// record of its own that could not be applied — and only failing that,
// the first stream whose records cannot be applied.
func TestBuildStrictErrorOrder(t *testing.T) {
	clean := encode(t, peerTable(), announce(day0, 0, bgp.Sequence(64500, 100), pfx))
	applyFails := encode(t, badPeer(), peerTable())
	both := append(encode(t, badPeer(), peerTable()), unsupported(1)...)
	decodeFails := append(encode(t, peerTable()), unsupported(1)...)
	for _, c := range []struct {
		name    string
		streams []Stream
		want    string
	}{
		{"apply error then decode error", []Stream{decoded("a", both), decoded("b", clean)},
			"mrt: record 2 at offset 0x"},
		{"apply error before a later stream's decode error", []Stream{decoded("a", applyFails), decoded("b", decodeFails)},
			"mrt: record 1 at offset 0x"},
		{"apply errors only", []Stream{decoded("b", applyFails), decoded("a", applyFails), decoded("c", clean)},
			"rib: a: RIB record before peer index table"},
	} {
		for _, workers := range []int{1, 3} {
			_, err := Build(c.streams, day0+10, workers, nil, 0)
			if err == nil || !strings.HasPrefix(err.Error(), c.want) {
				t.Errorf("%s, workers=%d: error %v, want one starting %q", c.name, workers, err, c.want)
			}
		}
	}
}

// TestBuildMatchesSerialLoad: whatever the pool, Build's index is the one
// serial Load calls in name order build, column for column.
func TestBuildMatchesSerialLoad(t *testing.T) {
	const n = 5
	want, err := buildSerial(t, n).Frozen()
	if err != nil {
		t.Fatal(err)
	}
	m := map[string][]mrt.Record{}
	for i := 0; i < n; i++ {
		name, recs := collectorStream(i)
		m[name] = recs
	}
	for _, workers := range []int{0, 1, 2, 16} {
		ix, err := Build(Streams(m), day0+100, workers, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ix.Frozen()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: built index differs from serial loading", workers)
		}
	}
}
