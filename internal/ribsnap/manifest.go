// The generation manifest: a small append-only, checksummed journal in
// the snapshot directory recording the lifecycle of every snapshot
// generation — written, promoted, retired, corrupt, removed. The
// serving layer's snapshot store (store.go) replays it at startup to
// recover exactly which generations exist and which one is live,
// instead of probing bare paths and trusting whatever file answers.
//
// # Record format
//
// The journal is a sequence of self-checking binary records:
//
//	u32  payload length (little-endian)
//	u32  CRC-32C (Castagnoli) of the payload
//	payload:
//	  u8   record version (1)
//	  u8   op: the GenStatus journaled (1 written … 5 removed)
//	  u16  reserved, zero
//	  u64  sequence number (monotonic per journal)
//	  i64  unix seconds (operational metadata only)
//	  [32] generation digest
//
// Replay walks records until the first torn or checksum-failing one —
// the write that a crash interrupted — and truncates the journal there
// before appending anything new, so a torn tail can never swallow
// later records. A valid record with an unknown version or op is
// skipped, not fatal: old binaries must be able to walk journals
// written by newer ones, and this one skips the version-2 "derived"
// records earlier binaries wrote (reconcile then adopts their
// generation directories as written). Appends are fsynced; the
// journal's own durability follows the same contract as the snapshots
// it describes.
package ribsnap

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"dropscope/internal/fsio"
)

// ManifestName is the journal's file name inside a snapshot directory.
const ManifestName = "manifest.log"

// GenStatus is the lifecycle state of one generation, as replayed from
// the manifest. Later records supersede earlier ones for the same
// digest, so a generation rewritten after being marked corrupt is
// clean again.
type GenStatus uint8

// The values are the journal's op bytes: append only, never renumber.
const (
	// GenUnknown: no manifest record mentions the digest.
	GenUnknown GenStatus = iota
	// GenWritten: the snapshot file was durably written.
	GenWritten
	// GenPromoted: the generation is (or last was) the live one.
	GenPromoted
	// GenRetired: superseded by a later promotion; file may still exist
	// inside the retention window.
	GenRetired
	// GenCorrupt: load or scrub found damage; the file must never be
	// adopted again until rewritten.
	GenCorrupt
	// GenRemoved: the file was garbage-collected.
	GenRemoved
)

func (s GenStatus) String() string {
	switch s {
	case GenWritten:
		return "written"
	case GenPromoted:
		return "promoted"
	case GenRetired:
		return "retired"
	case GenCorrupt:
		return "corrupt"
	case GenRemoved:
		return "removed"
	}
	return "unknown"
}

const (
	recVersion = 1

	recPayloadLen = 1 + 1 + 2 + 8 + 8 + 32
	recLen        = 8 + recPayloadLen
	// maxPayloadLen bounds a record's length field; a larger one is a
	// torn tail.
	maxPayloadLen = 1 << 12
)

// ManifestRecord is one replayed journal record.
type ManifestRecord struct {
	Seq    uint64
	Unix   int64
	Op     GenStatus
	Digest [32]byte
}

// Manifest is the replayed journal state plus the append handle. Not
// safe for concurrent use; the store serializes access.
type Manifest struct {
	dir  string
	fsys FS

	seq          uint64
	status       map[[32]byte]GenStatus
	seen         map[[32]byte]uint64 // digest -> seq of its latest record
	promoted     [32]byte
	promotedSeq  uint64 // seq of the record that promoted it
	havePromoted bool
}

// OpenManifestFS replays (and, if its tail is torn, truncates) the
// journal under dir, creating an empty one implicitly on first append.
// fsys is the filesystem seam for the append path (replay always reads
// the real file).
func OpenManifestFS(fsys FS, dir string) (*Manifest, error) {
	m := &Manifest{
		dir:    dir,
		fsys:   fsys,
		status: make(map[[32]byte]GenStatus),
		seen:   make(map[[32]byte]uint64),
	}
	if err := m.replay(); err != nil {
		return nil, err
	}
	return m, nil
}

func (m *Manifest) path() string { return filepath.Join(m.dir, ManifestName) }

// replay reads the journal, applies every valid record, and truncates
// the file at the first torn or corrupt record so future appends land
// on a clean tail.
func (m *Manifest) replay() error {
	data, err := os.ReadFile(m.path())
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	recs, valid := scanManifest(data)
	for _, rec := range recs {
		m.apply(rec)
	}
	if valid < len(data) {
		if err := os.Truncate(m.path(), int64(valid)); err != nil {
			return fmt.Errorf("ribsnap: manifest: truncating torn tail: %w", err)
		}
		if err := m.fsys.SyncDir(m.dir); err != nil {
			return err
		}
	}
	return nil
}

// scanManifest walks journal bytes up to the first torn or
// checksum-failing record and returns every record it could parse, in
// order, plus the length of the valid prefix — the offset just past
// the last record whose checksum verified. A checksummed record it
// cannot parse (an unknown version or op) counts toward the valid
// prefix but is skipped.
func scanManifest(data []byte) (recs []ManifestRecord, valid int) {
	for valid+8 <= len(data) {
		plen := int(binary.LittleEndian.Uint32(data[valid:]))
		want := binary.LittleEndian.Uint32(data[valid+4:])
		if plen <= 0 || plen > maxPayloadLen || valid+8+plen > len(data) {
			break // torn tail
		}
		payload := data[valid+8 : valid+8+plen]
		if crc32.Checksum(payload, fsio.Castagnoli) != want {
			break // torn or rotted tail
		}
		valid += 8 + plen
		if rec, ok := parseRecord(payload); ok {
			recs = append(recs, rec)
		}
	}
	return recs, valid
}

// parseRecord decodes one checksummed payload. The op byte is the
// GenStatus it journals.
func parseRecord(p []byte) (ManifestRecord, bool) {
	if len(p) != recPayloadLen || p[0] != recVersion {
		return ManifestRecord{}, false
	}
	op := GenStatus(p[1])
	if op < GenWritten || op > GenRemoved {
		return ManifestRecord{}, false
	}
	rec := ManifestRecord{
		Seq:  binary.LittleEndian.Uint64(p[4:12]),
		Unix: int64(binary.LittleEndian.Uint64(p[12:20])),
		Op:   op,
	}
	copy(rec.Digest[:], p[20:52])
	return rec, true
}

// encodeRecord frames rec as one journal record: length, checksum,
// payload.
func encodeRecord(rec ManifestRecord) [recLen]byte {
	var buf [recLen]byte
	p := buf[8:]
	p[0] = recVersion
	p[1] = uint8(rec.Op)
	binary.LittleEndian.PutUint64(p[4:12], rec.Seq)
	binary.LittleEndian.PutUint64(p[12:20], uint64(rec.Unix))
	copy(p[20:52], rec.Digest[:])
	binary.LittleEndian.PutUint32(buf[0:4], recPayloadLen)
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(p, fsio.Castagnoli))
	return buf
}

func (m *Manifest) apply(rec ManifestRecord) {
	if rec.Seq > m.seq {
		m.seq = rec.Seq
	}
	m.status[rec.Digest] = rec.Op
	m.seen[rec.Digest] = rec.Seq
	switch rec.Op {
	case GenPromoted:
		m.promoted = rec.Digest
		m.promotedSeq = rec.Seq
		m.havePromoted = true
	case GenRetired, GenCorrupt, GenRemoved:
		if m.havePromoted && m.promoted == rec.Digest {
			m.havePromoted = false
		}
	}
}

// Status reports the replayed lifecycle state of a generation.
func (m *Manifest) Status(digest [32]byte) GenStatus { return m.status[digest] }

// Promoted returns the live generation's digest, if one is promoted
// and not since retired, corrupted, or removed.
func (m *Manifest) Promoted() ([32]byte, bool) { return m.promoted, m.havePromoted }

// Generations lists every digest the manifest knows, in the order of
// their most recent record (oldest first) — the GC eviction order.
func (m *Manifest) Generations() []ManifestRecord {
	out := make([]ManifestRecord, 0, len(m.status))
	for d, st := range m.status {
		out = append(out, ManifestRecord{Digest: d, Op: st, Seq: m.seen[d]})
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Seq < out[j-1].Seq; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Append writes one record durably (O_APPEND write + fsync) and applies
// it to the replayed state.
func (m *Manifest) Append(op GenStatus, digest [32]byte) error {
	if op < GenWritten || op > GenRemoved {
		return fmt.Errorf("ribsnap: manifest: cannot append status %v", op)
	}
	m.seq++
	rec := ManifestRecord{Seq: m.seq, Unix: time.Now().Unix(), Op: op, Digest: digest}
	buf := encodeRecord(rec)
	if err := m.writeRecord(buf[:]); err != nil {
		return err
	}
	m.apply(rec)
	return nil
}

// writeRecord appends one encoded record durably (O_APPEND + fsync).
func (m *Manifest) writeRecord(buf []byte) error {
	f, err := os.OpenFile(m.path(), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadManifest replays the journal under dir read-only (no truncation,
// no append handle) and returns every valid record in order — the
// inspection path for tests and tooling.
func ReadManifest(dir string) ([]ManifestRecord, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	recs, _ := scanManifest(data)
	return recs, nil
}
