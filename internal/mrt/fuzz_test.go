package mrt

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"dropscope/internal/bgp"
	"dropscope/internal/ingest"
	"dropscope/internal/ingest/faultinject"
	"dropscope/internal/netx"
)

func FuzzReader(f *testing.F) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_ = w.Write(samplePeerIndex())
	_ = w.Write(sampleRIB())
	_ = w.Write(sampleBGP4MP())
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add(make([]byte, 12))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		for {
			rec, err := r.Next()
			if err != nil {
				if err != io.EOF && rec != nil {
					t.Fatal("record returned with error")
				}
				return
			}
			// Accepted records must re-serialize.
			var out bytes.Buffer
			if werr := NewWriter(&out).Write(rec); werr != nil {
				t.Fatalf("re-encode failed: %v", werr)
			}
		}
	})
}

// FuzzReaderLenient drives the resynchronizing reader over arbitrary
// bytes. The invariants: it never panics, with an unlimited skip budget
// the only terminal condition is io.EOF, the record count is bounded by
// the framing (one header per 12 bytes), and the skip count is bounded
// by the input length — every skip consumes at least one byte, so the
// loop always terminates.
func FuzzReaderLenient(f *testing.F) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_ = w.Write(samplePeerIndex())
	_ = w.Write(sampleRIB())
	_ = w.Write(sampleBGP4MP())
	clean := buf.Bytes()
	f.Add(clean)
	f.Add(faultinject.New(1).DamageMRT(clean))
	f.Add(faultinject.New(2).DamageMRT(clean))
	f.Add(faultinject.New(3).FlipBits(clean, 64))
	f.Add(faultinject.New(4).Interleave(clean, 5, 32))
	f.Add([]byte{})
	f.Add(make([]byte, 24))
	// BGP4MP UPDATE streams: the frames the delta-append path strictly
	// decodes from archive suffixes. A withdraw-only message, a
	// fully-attributed announcement (AS4 path, MED, LocalPref,
	// communities), and a back-to-back run of both; plus a truncated and
	// a bit-flipped copy so the resynchronizer walks damaged UPDATE
	// framing, not just damaged RIB framing.
	var ubuf bytes.Buffer
	uw := NewWriter(&ubuf)
	withdraw := sampleBGP4MP()
	withdraw.Update = &bgp.Update{Withdrawn: []netx.Prefix{netx.MustParsePrefix("132.255.0.0/22")}}
	announce := sampleBGP4MP()
	announce.Update.Attrs = bgp.Attrs{
		Origin:      bgp.OriginIGP,
		Path:        bgp.Sequence(4200000001, 50509, 263692),
		NextHop:     netx.AddrFrom4(203, 0, 113, 2),
		HasNextHop:  true,
		MED:         90,
		HasMED:      true,
		LocalPref:   200,
		HasLocal:    true,
		Communities: []uint32{64500<<16 | 13335, 0xFFFF0000},
	}
	_ = uw.Write(withdraw)
	_ = uw.Write(announce)
	_ = uw.Write(sampleBGP4MP())
	updates := ubuf.Bytes()
	f.Add(updates)
	f.Add(updates[:len(updates)-7])
	f.Add(faultinject.New(5).FlipBits(updates, 48))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &ingest.Source{Name: "fuzz"}
		r := NewReader(bytes.NewReader(data), Lenient(), WithSource(src))
		records := 0
		for {
			_, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("lenient reader returned non-EOF error: %v", err)
			}
			records++
		}
		if records > len(data)/12 {
			t.Fatalf("%d records from %d bytes", records, len(data))
		}
		if r.Skipped() > len(data)+1 {
			t.Fatalf("%d skips from %d bytes", r.Skipped(), len(data))
		}
		if int(src.Records) != records || src.Skipped() != uint64(r.Skipped()) {
			t.Fatalf("source counters diverged: %+v vs %d/%d", src, records, r.Skipped())
		}
	})
}

// FuzzReaderReuse holds the pooled decode (ReuseRecords), which recycles
// record storage between Next calls, to the allocating one over the same
// bytes, strict and lenient: record for record the same bytes when
// re-encoded, the same error, and the same source counters.
func FuzzReaderReuse(f *testing.F) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_ = w.Write(samplePeerIndex())
	_ = w.Write(sampleRIB())
	_ = w.Write(sampleBGP4MP())
	short := sampleRIB()
	short.Entries = short.Entries[:1]
	_ = w.Write(short) // fewer entries than the slot storage holds
	_ = w.Write(sampleRIB())
	withdraw := sampleBGP4MP()
	withdraw.Update = &bgp.Update{Withdrawn: []netx.Prefix{netx.MustParsePrefix("132.255.0.0/22")}}
	_ = w.Write(withdraw) // no attributes after a message with some
	_ = w.Write(sampleBGP4MP())
	clean := buf.Bytes()
	f.Add(clean)
	f.Add(faultinject.New(1).DamageMRT(clean))
	f.Add(faultinject.New(2).FlipBits(clean, 64))
	f.Add(clean[:len(clean)-5])
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, lenient := range []bool{false, true} {
			var alloc, pooled ingest.Source
			opts := func(src *ingest.Source) []Option {
				if lenient {
					return []Option{Lenient(), WithSource(src)}
				}
				return []Option{WithSource(src)}
			}
			ra := NewReader(bytes.NewReader(data), opts(&alloc)...)
			rp := NewReader(bytes.NewReader(data), append(opts(&pooled), ReuseRecords())...)
			for i := 0; ; i++ {
				a, aerr := ra.Next()
				p, perr := rp.Next()
				if fmt.Sprint(aerr) != fmt.Sprint(perr) {
					t.Fatalf("lenient=%v record %d: error %v, pooled %v", lenient, i, aerr, perr)
				}
				if aerr != nil {
					break
				}
				ab, aw := encodeRecord(a)
				pb, pw := encodeRecord(p)
				if !bytes.Equal(ab, pb) || fmt.Sprint(aw) != fmt.Sprint(pw) {
					t.Fatalf("lenient=%v record %d re-encodes to %x (%v), pooled %x (%v)", lenient, i, ab, aw, pb, pw)
				}
			}
			rp.Release()
			if alloc != pooled || ra.Skipped() != rp.Skipped() {
				t.Fatalf("lenient=%v: counters %+v (%d skipped), pooled %+v (%d skipped)", lenient, alloc, ra.Skipped(), pooled, rp.Skipped())
			}
		}
	})
}

func encodeRecord(rec Record) ([]byte, error) {
	var out bytes.Buffer
	err := NewWriter(&out).Write(rec)
	return out.Bytes(), err
}
