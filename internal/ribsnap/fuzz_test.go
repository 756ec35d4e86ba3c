package ribsnap

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"slices"
	"testing"
)

// FuzzSnapshotLoad drives the header/section/column parser with
// adversarial bytes. Whatever the input, decode must return a typed
// error or a usable snapshot — never panic, never index out of bounds.
//
// Two probes per input: the raw bytes (exercising the header, CRC, and
// digest gates), and a patched copy whose header CRC is recomputed over
// the mutated payload (so fuzz mutations reach the section table and
// the per-section decoders instead of dying at the checksum).
func FuzzSnapshotLoad(f *testing.F) {
	ix, window := randomIndex(f, 5)
	digest := [32]byte{5, 5, 5}
	path := writeTestSnapshot(f, ix, window, digest)
	real, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Add(real[:headerSize])
	f.Add(real[:len(real)/2])
	f.Add([]byte{})
	f.Add([]byte("DSRIBSNP"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var dg [32]byte
		if len(data) >= 48 {
			copy(dg[:], data[16:48])
		}
		if s, derr := decode(data, dg); derr == nil {
			_ = s.Index.Peers()
			_ = s.Index.Prefixes()
		}

		if len(data) < headerSize {
			return
		}
		b := append([]byte(nil), data...)
		paylen := binary.LittleEndian.Uint64(b[48:56])
		if paylen > uint64(len(b)-headerSize) {
			return
		}
		binary.LittleEndian.PutUint32(b[56:60],
			crc32.Checksum(b[headerSize:headerSize+int(paylen)], castagnoli))
		copy(dg[:], b[16:48])
		if s, derr := decode(b, dg); derr == nil {
			_ = s.Index.Peers()
			for _, p := range s.Index.Prefixes() {
				_ = s.Index.OriginTimeline(p)
				break
			}
		}
	})
}

// FuzzManifestScan drives the generation journal's record scanner, the
// one replay and ReadManifest share. Whatever the input it must not
// panic; the valid prefix it reports must fit the input and rescan to
// the same records; and every record it returns must come back equal
// from Append's encoding.
func FuzzManifestScan(f *testing.F) {
	var journal []byte
	for i, op := range []GenStatus{GenWritten, GenPromoted, GenRetired, GenCorrupt, GenRemoved} {
		rec := encodeRecord(ManifestRecord{Seq: uint64(i + 1), Unix: 1650000000, Op: op, Digest: dg(byte(i))})
		journal = append(journal, rec[:]...)
	}
	f.Add(journal)
	f.Add(journal[:len(journal)-7])                                        // torn tail
	f.Add(append(slices.Clip(journal), derivedRecord(6, dg(9), dg(1))...)) // earlier binary's v2 record: skipped
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid := scanManifest(data)
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid prefix %d of %d bytes", valid, len(data))
		}
		again, revalid := scanManifest(data[:valid])
		if revalid != valid || !slices.Equal(again, recs) {
			t.Fatalf("rescanning the valid prefix: %d records / %d bytes, first scan %d / %d",
				len(again), revalid, len(recs), valid)
		}
		for _, rec := range recs {
			enc := encodeRecord(rec)
			if got, ok := parseRecord(enc[8:]); !ok || got != rec {
				t.Fatalf("re-encoded record %+v parses back as %+v (%v)", rec, got, ok)
			}
		}
	})
}
