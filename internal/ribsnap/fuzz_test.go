package ribsnap

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"reflect"
	"slices"
	"testing"

	"dropscope/internal/fsio"
	"dropscope/internal/netx"
	"dropscope/internal/timex"
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
			crc32.Checksum(b[headerSize:headerSize+int(paylen)], fsio.Castagnoli))
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

// lineageSections encodes a lineage as a snapshot's lineage and cursor
// sections are laid out (WriteLineageFS).
func lineageSections(lin *Lineage) (linB, curB []byte) {
	linB = binary.LittleEndian.AppendUint32(nil, uint32(lin.MaxDay))
	curB = binary.LittleEndian.AppendUint32(nil, uint32(len(lin.Cursors)))
	for _, c := range lin.Cursors {
		curB = binary.LittleEndian.AppendUint32(curB, uint32(len(c.Collector)))
		curB = append(curB, c.Collector...)
		curB = append(curB, make([]byte, pad4(len(c.Collector))-len(c.Collector))...)
		curB = binary.LittleEndian.AppendUint64(curB, c.Size)
		curB = append(curB, c.Sum[:]...)
	}
	return linB, curB
}

// FuzzDecodeLineage drives the lineage and cursor sections' decoder,
// whose cursors carry the per-file sums a delta load verifies the
// archive against. Whatever the input it must not panic, and a lineage
// it accepts must come back equal from its re-encoding.
func FuzzDecodeLineage(f *testing.F) {
	linB, curB := lineageSections(&Lineage{MaxDay: 18262, Cursors: []ArchiveCursor{
		{Collector: "route-views2", Size: 1 << 33, Sum: dg(1)},
		{Collector: "rrc00", Size: 7, Sum: dg(2)},
	}})
	f.Add(linB, curB)
	f.Add(linB, curB[:len(curB)-5]) // a torn last cursor
	f.Add(linB[:3], curB)
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, linB, curB []byte) {
		lin, err := decodeLineage(linB, curB)
		if err != nil {
			return
		}
		again, err := decodeLineage(lineageSections(lin))
		if err != nil || !reflect.DeepEqual(again, lin) {
			t.Fatalf("re-encoded lineage %+v decodes as %+v (%v)", lin, again, err)
		}
	})
}

// FuzzShardManifest drives the shards.manifest decoder. Each input is
// tried as it is and with its trailer resealed (fsio.Seal), so
// mutations reach the fields instead of dying at the checksum. Whatever
// the input it must not panic, and a manifest it accepts must re-encode
// to the very bytes it was decoded from.
func FuzzShardManifest(f *testing.F) {
	f.Add(encodeShardManifest(&ShardManifest{
		Digest: dg(0x5A),
		Window: timex.Range{First: day0, Last: day0 + 60},
		Shards: []ShardInfo{
			{Bound: netx.MustParsePrefix("10.0.0.0/16"), NumPrefixes: 120},
			{Bound: netx.MustParsePrefix("198.51.100.0/24"), NumPrefixes: 3},
		},
	}))
	f.Add(encodeShardManifest(&ShardManifest{Shards: []ShardInfo{{}}}))
	f.Add([]byte(shardMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		probes := [][]byte{data}
		if n := len(data) - 4; n >= 0 {
			probes = append(probes, fsio.Seal(slices.Clip(data[:n])))
		}
		for _, b := range probes {
			m, err := decodeShardManifest(b)
			if err != nil {
				continue
			}
			if again := encodeShardManifest(m); !bytes.Equal(again, b) {
				t.Fatalf("an accepted manifest %+v re-encodes to other bytes", m)
			}
		}
	})
}
