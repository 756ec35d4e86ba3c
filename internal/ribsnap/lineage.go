package ribsnap

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path"
	"sort"
	"strings"

	"dropscope/internal/filesum"
	"dropscope/internal/timex"
)

// ArchiveCursor records how far into one collector's archive file a
// snapshot's index has consumed: the byte count and the SHA-256 of
// exactly those bytes. The delta-append path verifies the current file
// still begins with those bytes (append-only growth) and resumes
// decoding at Size; any rewrite, truncation, or reorder changes the
// prefix hash and forces a cold rebuild.
type ArchiveCursor struct {
	Collector string // file name without the .mrt suffix
	Size      uint64
	Sum       [32]byte
}

// Lineage is the delta-append metadata every snapshot carries: where
// each archive file's consumed prefix ends (Cursors) and the largest
// record day folded into the index (MaxDay — open-span recovery is
// sound only while it does not exceed the close day).
type Lineage struct {
	MaxDay  timex.Day
	Cursors []ArchiveCursor
}

// decodeLineage parses the lineage + cursors sections, both required.
func decodeLineage(linB, curB []byte) (*Lineage, error) {
	if linB == nil || curB == nil {
		return nil, fmt.Errorf("%w: missing lineage or cursor section", ErrCorrupt)
	}
	if len(linB) != lineageSize {
		return nil, fmt.Errorf("%w: lineage section %d bytes", ErrCorrupt, len(linB))
	}
	lin := &Lineage{MaxDay: timex.Day(int32(binary.LittleEndian.Uint32(linB)))}

	cc := &cursor{b: curB}
	n := int(cc.u32())
	if n < 0 || n > len(curB) {
		return nil, fmt.Errorf("%w: cursor entries %d", ErrCorrupt, n)
	}
	lin.Cursors = make([]ArchiveCursor, 0, n)
	for i := 0; i < n; i++ {
		name := cc.stringPad4(int(cc.u32()))
		size := cc.u64()
		var sum [32]byte
		if cc.bad || cc.off+32 > len(cc.b) {
			cc.bad = true
			break
		}
		copy(sum[:], cc.b[cc.off:cc.off+32])
		cc.off += 32
		lin.Cursors = append(lin.Cursors, ArchiveCursor{Collector: name, Size: size, Sum: sum})
	}
	if cc.bad {
		return nil, fmt.Errorf("%w: cursor section overrun", ErrCorrupt)
	}
	return lin, nil
}

// ArchiveCursors hashes every *.mrt file under dir in name order,
// returning the cursors a snapshot built from the archive's current
// state should persist. The per-file hashes double as the append-only
// check for the next delta: a grown file whose first Size bytes still
// hash to Sum was strictly appended to.
func ArchiveCursors(dir string) ([]ArchiveCursor, error) {
	return SumCursors(filesum.Open(dir, nil), ".", 1)
}

// SumCursors is ArchiveCursors over the subdirectory sub of the archive
// m describes, each file's sum taken from m: read and hashed, on up to
// workers goroutines, only where m's row for the file does not hold.
func SumCursors(m *filesum.Manifest, sub string, workers int) ([]ArchiveCursor, error) {
	entries, err := os.ReadDir(m.Path(sub))
	if err != nil {
		return nil, err
	}
	var rels []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".mrt") {
			rels = append(rels, path.Join(sub, e.Name()))
		}
	}
	sums, err := m.SumAll(rels, workers)
	if err != nil {
		return nil, err
	}
	out := make([]ArchiveCursor, len(rels))
	for i, rel := range rels {
		out[i] = ArchiveCursor{Collector: strings.TrimSuffix(path.Base(rel), ".mrt"), Size: sums[i].Size, Sum: sums[i].SHA}
	}
	return out, nil
}

// DigestCursors folds archive cursors into the archive digest: for
// every cursor in collector order, its name, consumed size, and
// content hash. This is the digest definition — DigestMRT is exactly
// DigestCursors over ArchiveCursors — so any code that already holds
// per-file cursors (a snapshot's lineage, a delta build's output) can
// derive the digest without re-reading a byte of the archive.
func DigestCursors(cursors []ArchiveCursor) [32]byte {
	sorted := make([]ArchiveCursor, len(cursors))
	copy(sorted, cursors)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Collector < sorted[j].Collector })
	h := sha256.New()
	var hdr [8]byte
	for _, c := range sorted {
		io.WriteString(h, c.Collector)
		h.Write([]byte{0})
		binary.LittleEndian.PutUint64(hdr[:], c.Size)
		h.Write(hdr[:])
		h.Write(c.Sum[:])
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}
