package ribsnap

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"dropscope/internal/fsio"
)

// refreshRecordCRC recomputes a hand-edited record's payload checksum.
func refreshRecordCRC(rec []byte) {
	binary.LittleEndian.PutUint32(rec[4:8], crc32.Checksum(rec[8:], fsio.Castagnoli))
}

// derivedRecord hand-encodes the version-2 "derived" record earlier
// binaries journaled for a delta-built generation: a written record
// plus its parent's digest.
func derivedRecord(seq uint64, digest, parent [32]byte) []byte {
	rec := make([]byte, 8+recPayloadLen+32)
	p := rec[8:]
	p[0], p[1] = 2, 6
	binary.LittleEndian.PutUint64(p[4:12], seq)
	copy(p[20:52], digest[:])
	copy(p[52:84], parent[:])
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(p)))
	refreshRecordCRC(rec)
	return rec
}

func dg(b byte) (d [32]byte) {
	for i := range d {
		d[i] = b
	}
	return d
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m, err := OpenManifestFS(OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	a, b := dg(1), dg(2)
	for _, step := range []struct {
		op GenStatus
		d  [32]byte
	}{
		{GenWritten, a}, {GenPromoted, a}, {GenWritten, b},
		{GenPromoted, b}, {GenRetired, a},
	} {
		if err := m.Append(step.op, step.d); err != nil {
			t.Fatal(err)
		}
	}

	// Reopen: replay must reconstruct the same state.
	m2, err := OpenManifestFS(OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.Status(a); got != GenRetired {
		t.Fatalf("a status = %v, want retired", got)
	}
	if got := m2.Status(b); got != GenPromoted {
		t.Fatalf("b status = %v, want promoted", got)
	}
	if live, ok := m2.Promoted(); !ok || live != b {
		t.Fatalf("promoted = %x/%v, want b", live[:4], ok)
	}
	if got := m2.Status(dg(9)); got != GenUnknown {
		t.Fatalf("unseen digest status = %v, want unknown", got)
	}
	gens := m2.Generations()
	if len(gens) != 2 || gens[0].Digest != b || gens[1].Digest != a {
		t.Fatalf("generations order wrong: %+v", gens)
	}
}

func TestManifestLastRecordWins(t *testing.T) {
	dir := t.TempDir()
	m, err := OpenManifestFS(OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	a := dg(3)
	for _, op := range []GenStatus{GenWritten, GenPromoted, GenCorrupt} {
		if err := m.Append(op, a); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := m.Promoted(); ok {
		t.Fatal("corrupting the live generation must clear promotion")
	}
	// A rewrite supersedes the corrupt mark.
	if err := m.Append(GenWritten, a); err != nil {
		t.Fatal(err)
	}
	if got := m.Status(a); got != GenWritten {
		t.Fatalf("status after rewrite = %v, want written", got)
	}
	m2, err := OpenManifestFS(OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.Status(a); got != GenWritten {
		t.Fatalf("replayed status = %v, want written", got)
	}
}

func TestManifestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	m, err := OpenManifestFS(OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Append(GenWritten, dg(4)); err != nil {
		t.Fatal(err)
	}
	if err := m.Append(GenPromoted, dg(4)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, ManifestName)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Tear the second record at every byte boundary; replay must keep
	// the first record and truncate the rest.
	for cut := recLen + 1; cut < len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		m2, err := OpenManifestFS(OS, dir)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if got := m2.Status(dg(4)); got != GenWritten {
			t.Fatalf("cut=%d: status = %v, want written (torn promote dropped)", cut, got)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != int64(recLen) {
			t.Fatalf("cut=%d: torn tail not truncated: size %d", cut, st.Size())
		}
		// Appends after truncation must land cleanly.
		if err := m2.Append(GenRetired, dg(4)); err != nil {
			t.Fatalf("cut=%d: append after truncation: %v", cut, err)
		}
		m3, err := OpenManifestFS(OS, dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := m3.Status(dg(4)); got != GenRetired {
			t.Fatalf("cut=%d: post-truncation append lost: %v", cut, got)
		}
	}
}

func TestManifestCorruptRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	m, err := OpenManifestFS(OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Append(GenWritten, dg(5)); err != nil {
		t.Fatal(err)
	}
	if err := m.Append(GenPromoted, dg(5)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, ManifestName)
	full, _ := os.ReadFile(path)
	full[recLen+20] ^= 0xFF // flip a payload byte of record 2
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	m2, err := OpenManifestFS(OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.Status(dg(5)); got != GenWritten {
		t.Fatalf("status = %v, want written (rotted promote dropped)", got)
	}
}

func TestManifestUnknownOpSkipped(t *testing.T) {
	dir := t.TempDir()
	m, err := OpenManifestFS(OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Append(GenWritten, dg(6)); err != nil {
		t.Fatal(err)
	}
	// Hand-craft a checksum-valid record with op 99 between two real
	// ones: a journal written by a future binary.
	path := filepath.Join(dir, ManifestName)
	full, _ := os.ReadFile(path)
	alien := append([]byte(nil), full[:recLen]...)
	alien[8+1] = 99
	refreshRecordCRC(alien)
	full = append(full, alien...)
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	m2, err := OpenManifestFS(OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Append(GenPromoted, dg(6)); err != nil {
		t.Fatal(err)
	}
	m3, err := OpenManifestFS(OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := m3.Status(dg(6)); got != GenPromoted {
		t.Fatalf("status = %v: unknown-op record must be skipped, not fatal", got)
	}
}

func TestReadManifest(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadManifest(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing journal: %v", err)
	}
	m, err := OpenManifestFS(OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Append(GenWritten, dg(7)); err != nil {
		t.Fatal(err)
	}
	if err := m.Append(GenPromoted, dg(7)); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Op != GenWritten || recs[1].Op != GenPromoted ||
		recs[0].Seq != 1 || recs[1].Seq != 2 {
		t.Fatalf("records = %+v", recs)
	}
}

// TestManifestSkipsDerivedRecords: a journal written by an earlier
// binary replays with its derived records skipped, not truncated —
// records around them apply, and appends land after them.
func TestManifestSkipsDerivedRecords(t *testing.T) {
	dir := t.TempDir()
	m, err := OpenManifestFS(OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Append(GenPromoted, dg(7)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, ManifestName)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	full = append(full, derivedRecord(2, dg(8), dg(7))...)
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	m2, err := OpenManifestFS(OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.Status(dg(8)); got != GenUnknown {
		t.Fatalf("derived generation status = %v, want unknown", got)
	}
	if live, ok := m2.Promoted(); !ok || live != dg(7) {
		t.Fatalf("promoted = %x/%v, want the record before the derived one", live[:4], ok)
	}
	if err := m2.Append(GenWritten, dg(8)); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].Op != GenWritten || recs[1].Digest != dg(8) {
		t.Fatalf("records = %+v, want the promote and the append", recs)
	}
}
