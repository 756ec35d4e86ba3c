package ribsnap

import (
	"encoding/binary"
	"hash/crc32"
	"os"
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
