// Package ribsnap persists a closed rib.Index as a versioned,
// checksummed snapshot file so repeat runs over unchanged MRT archives
// can skip decode, merge, and close entirely — the warm-start path.
//
// # File layout
//
// A snapshot is a 64-byte header, a section table, and little-endian
// flat sections, each 8-byte aligned:
//
//	off  0  magic   [8]byte  "DSRIBSNP"
//	off  8  version uint32   (Version)
//	off 12  nsec    uint32   section count
//	off 16  digest  [32]byte sha256 of the source MRT archive bytes
//	off 48  paylen  uint64   bytes following the header
//	off 56  crc     uint32   CRC-32C (Castagnoli) of the payload
//	off 60  _       uint32   reserved, zero
//
// The payload begins with nsec 24-byte table entries — id uint32,
// reserved uint32, offset uint64, length uint64, offsets relative to
// the payload start — followed by the section data. The numeric
// columns of the index (spans, offset tables, visibility events) are
// stored exactly as they sit in memory on little-endian machines, so
// Load can map the file (syscall.Mmap on linux, os.ReadFile elsewhere)
// and hand the sections to rib.FromFrozen without copying; variable-
// length sections (peers, paths, per-collector record counts) always
// decode by copy into a handful of arena allocations.
//
// # Validity
//
// A snapshot is valid for exactly one archive state: Load recomputes
// nothing but compares the stored digest against the caller's digest
// of the current MRT bytes (DigestMRT) and the stored version against
// Version. Any failure — short file, bad magic, version skew, CRC
// mismatch, stale digest, malformed section — returns a typed error
// (ErrTruncated, ErrVersion, ErrCorrupt, ErrStale) and never a wrong
// index; callers fall back to a cold rebuild and rewrite the file.
package ribsnap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"dropscope/internal/bgp"
	"dropscope/internal/netx"
	"dropscope/internal/rib"
	"dropscope/internal/timex"
)

// Version is the snapshot format version. Bump it whenever the section
// layout or the rib columnar representation changes shape; older files
// then fail Load with ErrVersion and are rebuilt.
const Version = 2

var magic = [8]byte{'D', 'S', 'R', 'I', 'B', 'S', 'N', 'P'}

const (
	headerSize = 64
	tableEntry = 24
)

// Section ids. The table may list them in any order; each id appears
// at most once.
const (
	secMeta        = 1  // window first/last day
	secPeers       = 2  // packed PeerRef table
	secPrefixAddrs = 3  // uint32 per sorted prefix
	secPrefixBits  = 4  // uint8 per sorted prefix
	secPaths       = 5  // packed AS-path dictionary
	secSpans       = 6  // 20-byte rib.Span per span
	secSpanOff     = 7  // uint32[nprefix+1]
	secEvDay       = 8  // int32 per visibility event
	secEvCount     = 9  // int32 per visibility event
	secEvOff       = 10 // uint32[nprefix+1]
	secCounts      = 11 // packed per-collector record counts
	secLineage     = 12 // max record day (delta-append open-span recovery)
	secCursors     = 13 // per-collector archive byte cursors
)

// Typed load failures, in the order Load checks them. Callers treat
// every one as "rebuild cold"; the distinction only feeds skip
// classification (ingest.Truncated / Corrupt / Unsupported).
var (
	ErrTruncated = errors.New("ribsnap: snapshot truncated")
	ErrCorrupt   = errors.New("ribsnap: snapshot corrupt")
	ErrVersion   = errors.New("ribsnap: snapshot version mismatch")
	ErrStale     = errors.New("ribsnap: snapshot stale (archive digest mismatch)")
)

// ErrClosed is returned by Acquire once Close has been called: the
// mapping is (or is about to be) gone, and a reader that proceeded
// anyway would fault on the unmapped pages. Long-lived readers — the
// query daemon's request handlers — must bracket every use of the
// index with Acquire/Release and treat ErrClosed as "this generation
// is retired, look up the current one".
var ErrClosed = errors.New("ribsnap: snapshot closed")

// errNoLineage refuses a write without lineage: every generation must
// be extendable by the delta-append path.
var errNoLineage = errors.New("ribsnap: snapshot write needs a lineage")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CollectorCount records how many MRT records one collector
// contributed to the snapshotted index — replayed into ingest.Health
// on warm loads so a warm study reports the same record totals as the
// cold run that wrote the snapshot.
type CollectorCount struct {
	Collector string
	Records   uint64
}

// Snapshot is a loaded snapshot: the reconstructed index plus the
// ingest bookkeeping a warm start must replay. When the file was
// memory-mapped, the index's columnar store aliases the mapping;
// Close unmaps it, after which the index must not be used.
//
// # Lifetime under concurrent readers
//
// The mapped slices carry no lifetime information of their own: a
// reader still walking the index when the mapping is released faults.
// Single-owner callers (the warm-start CLI path) simply Close when
// done. Concurrent-reader callers — the query daemon, where any number
// of in-flight requests share one snapshot while a reload retires it —
// bracket each use with Acquire/Release. Close then only marks the
// snapshot closed: new Acquire calls fail with ErrClosed, and the
// mapping is actually released by whichever of Close or the final
// Release runs last. The zero Snapshot (no mapping) supports the same
// protocol with a no-op unmap, so cold-built indexes can share the
// daemon's generation plumbing.
type Snapshot struct {
	Index  *rib.Index
	Window timex.Range
	Counts []CollectorCount
	// Digest is the archive digest the snapshot was keyed on — the
	// generation identity a serving layer reports with every response.
	Digest [32]byte
	// Lineage is the delta-append metadata every stored snapshot
	// carries; nil only on a Snapshot wrapping a cold-built index.
	Lineage *Lineage

	// mapped is the raw mapping when the snapshot is mmap-backed; it
	// exists so eviction can hint the pages out (DropPages) and a
	// re-fault can prove the pages it reads back (reverify).
	mapped []byte
	// hdr is the header Load verified; reverify requires it unchanged.
	hdr header

	unmap func() error

	mu     sync.Mutex
	refs   int
	closed bool
}

// Acquire registers a reader. It fails with ErrClosed once Close has
// run; on success the caller must Release exactly once when done, and
// until then the index and every slice derived from it stay valid.
func (s *Snapshot) Acquire() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.refs++
	return nil
}

// Release drops one Acquire. The reader must not touch the index
// afterwards. If Close already ran and this was the last reader, the
// mapping is released now.
func (s *Snapshot) Release() {
	s.mu.Lock()
	if s.refs <= 0 {
		s.mu.Unlock()
		panic("ribsnap: Release without matching Acquire")
	}
	s.refs--
	last := s.refs == 0 && s.closed
	var u func() error
	if last {
		u, s.unmap = s.unmap, nil
	}
	s.mu.Unlock()
	if u != nil {
		u()
	}
}

// Refs reports the number of in-flight readers. A retired generation
// has drained exactly when Refs reports zero — the serving layer's
// leak and soak tests assert it, and the panic-isolation middleware's
// whole job is keeping it reachable.
func (s *Snapshot) Refs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.refs
}

// Close retires the snapshot: subsequent Acquire calls fail with
// ErrClosed. With no readers in flight the file mapping is released
// immediately and its error returned; otherwise the last Release
// unmaps and Close returns nil. Close is idempotent and safe to call
// concurrently with Acquire/Release.
func (s *Snapshot) Close() error {
	s.mu.Lock()
	s.closed = true
	var u func() error
	if s.refs == 0 {
		u, s.unmap = s.unmap, nil
	}
	s.mu.Unlock()
	if u != nil {
		return u()
	}
	return nil
}

// DigestMRT hashes the MRT archive state under dir: for every *.mrt
// file in name order, its name, size, and the SHA-256 of its contents,
// folded per DigestCursors. Any change to the archive bytes — a
// collector added, removed, renamed, or edited — changes the digest
// and invalidates snapshots keyed on it. Because the digest is a fold
// of the per-file cursor hashes, one read of the archive yields both
// the digest and the lineage cursors a snapshot persists, and a delta
// build derives the grown archive's digest from the cursors it already
// computed — no second pass over the bytes.
func DigestMRT(dir string) ([32]byte, error) {
	var zero [32]byte
	cursors, err := ArchiveCursors(dir)
	if err != nil {
		return zero, err
	}
	return DigestCursors(cursors), nil
}

// --- encoding -----------------------------------------------------------

func pad4(n int) int { return (n + 3) &^ 3 }
func pad8(n int) int { return (n + 7) &^ 7 }

// pathTotals returns the flattened dictionary dimensions: total
// segments and total ASNs across all paths.
func pathTotals(paths []bgp.ASPath) (segs, asns int) {
	for _, p := range paths {
		segs += len(p)
		for _, seg := range p {
			asns += len(seg.ASNs)
		}
	}
	return segs, asns
}

func peersSize(peers []rib.PeerRef) int {
	n := 4
	for _, p := range peers {
		n += 12 + pad4(len(p.Collector))
	}
	return n
}

func pathsSize(paths []bgp.ASPath) int {
	segs, asns := pathTotals(paths)
	return 24 + 4*len(paths) + pad4(segs) + 4*segs + 4*asns
}

func countsSize(counts []CollectorCount) int {
	n := 4
	for _, c := range counts {
		n += 4 + pad4(len(c.Collector)) + 8
	}
	return n
}

// lineageSize is the fixed secLineage layout: the max record day.
const lineageSize = 4

func cursorsSize(cs []ArchiveCursor) int {
	n := 4
	for _, c := range cs {
		n += 4 + pad4(len(c.Collector)) + 8 + 32
	}
	return n
}

// crcWriter tracks the running CRC-32C and byte count of everything
// written through it.
type crcWriter struct {
	w   io.Writer
	crc uint32
	n   uint64
	err error
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	if cw.err != nil {
		return 0, cw.err
	}
	n, err := cw.w.Write(p)
	cw.crc = crc32.Update(cw.crc, castagnoli, p[:n])
	cw.n += uint64(n)
	cw.err = err
	return n, err
}

// sectionEncoder accumulates little-endian section bytes through a
// reused scratch buffer, flushing to the underlying writer.
type sectionEncoder struct {
	cw  *crcWriter
	buf []byte
}

func (e *sectionEncoder) flush() {
	if len(e.buf) > 0 {
		e.cw.Write(e.buf)
		e.buf = e.buf[:0]
	}
}

func (e *sectionEncoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *sectionEncoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *sectionEncoder) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *sectionEncoder) bytesPad4(b []byte) {
	e.buf = append(e.buf, b...)
	for i := len(b); i%4 != 0; i++ {
		e.buf = append(e.buf, 0)
	}
	if len(e.buf) >= 1<<16 {
		e.flush()
	}
}

// WriteLineageFS persists a frozen index, the study window it was
// closed with, per-collector record counts and the lineage — the
// archive cursors the delta-append path resumes decoding from and the
// index's largest record day; a nil lin is an error — as a snapshot at
// path, atomically and
// durably: the payload is streamed to an O_EXCL temp file, the temp is
// fsynced before the rename, and the parent directory is fsynced after
// it, so a crash (or power loss) at any step leaves either the old
// complete snapshot or the new complete snapshot at path — never a
// torn file. digest must be DigestMRT of the archive the index was
// built from. Every write goes through fsys, the seam the disk-fault
// injector drives (see fs.go).
func WriteLineageFS(fsys FS, path string, f *rib.Frozen, window timex.Range, digest [32]byte, counts []CollectorCount, lin *Lineage) (err error) {
	if lin == nil {
		return errNoLineage
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := fsys.CreateTemp(dir, tempPattern)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			// Best effort: under a simulated fail-stop crash the Remove
			// fails too, leaving the orphan the startup sweep collects.
			tmp.Close()
			fsys.Remove(tmp.Name())
		}
	}()

	n := len(f.Prefixes)
	type section struct {
		id  uint32
		len int
	}
	sections := []section{
		{secMeta, 8},
		{secPeers, peersSize(f.Peers)},
		{secPrefixAddrs, 4 * n},
		{secPrefixBits, n},
		{secPaths, pathsSize(f.Paths)},
		{secSpans, 20 * len(f.Col)},
		{secSpanOff, 4 * len(f.SpanOff)},
		{secEvDay, 4 * len(f.EvDay)},
		{secEvCount, 4 * len(f.EvCount)},
		{secEvOff, 4 * len(f.EvOff)},
		{secCounts, countsSize(counts)},
		{secLineage, lineageSize},
		{secCursors, cursorsSize(lin.Cursors)},
	}

	// Header placeholder; rewritten with the payload length and CRC once
	// everything is streamed out.
	var hdr [headerSize]byte
	if _, err = tmp.Write(hdr[:]); err != nil {
		return err
	}

	cw := &crcWriter{w: tmp}
	enc := &sectionEncoder{cw: cw}

	// Section table: offsets are assigned sequentially, 8-aligned, from
	// the payload start (which the table itself occupies first).
	off := uint64(tableEntry * len(sections))
	for _, s := range sections {
		enc.u32(s.id)
		enc.u32(0)
		enc.u64(off)
		enc.u64(uint64(s.len))
		off += uint64(pad8(s.len))
	}

	pad := func(written int) {
		for i := written; i%8 != 0; i++ {
			enc.u8(0)
		}
	}

	// secMeta
	enc.u32(uint32(window.First))
	enc.u32(uint32(window.Last))

	// secPeers
	enc.u32(uint32(len(f.Peers)))
	for _, p := range f.Peers {
		enc.u32(uint32(p.Addr))
		enc.u32(uint32(p.AS))
		enc.u32(uint32(len(p.Collector)))
		enc.bytesPad4([]byte(p.Collector))
	}
	pad(peersSize(f.Peers))

	// secPrefixAddrs
	for _, p := range f.Prefixes {
		enc.u32(uint32(p.Addr()))
		if len(enc.buf) >= 1<<16 {
			enc.flush()
		}
	}
	pad(4 * n)

	// secPrefixBits
	for _, p := range f.Prefixes {
		enc.u8(uint8(p.Bits()))
		if len(enc.buf) >= 1<<16 {
			enc.flush()
		}
	}
	pad(n)

	// secPaths: counts, then four flat columns — per-path segment
	// counts, per-segment types, per-segment ASN counts, all ASNs.
	segs, asns := pathTotals(f.Paths)
	enc.u64(uint64(len(f.Paths)))
	enc.u64(uint64(segs))
	enc.u64(uint64(asns))
	for _, p := range f.Paths {
		enc.u32(uint32(len(p)))
	}
	enc.flush()
	segTypes := 0
	for _, p := range f.Paths {
		for _, seg := range p {
			enc.u8(seg.Type)
			segTypes++
		}
		if len(enc.buf) >= 1<<16 {
			enc.flush()
		}
	}
	for i := segTypes; i%4 != 0; i++ {
		enc.u8(0)
	}
	for _, p := range f.Paths {
		for _, seg := range p {
			enc.u32(uint32(len(seg.ASNs)))
		}
		if len(enc.buf) >= 1<<16 {
			enc.flush()
		}
	}
	for _, p := range f.Paths {
		for _, seg := range p {
			for _, a := range seg.ASNs {
				enc.u32(uint32(a))
			}
			if len(enc.buf) >= 1<<16 {
				enc.flush()
			}
		}
	}
	pad(pathsSize(f.Paths))

	// secSpans: the 20-byte layout mirrors rib.Span field order.
	for _, s := range f.Col {
		enc.u32(s.Prefix)
		enc.u32(uint32(s.Peer))
		enc.u32(uint32(s.From))
		enc.u32(uint32(s.To))
		enc.u32(uint32(s.Path))
		if len(enc.buf) >= 1<<16 {
			enc.flush()
		}
	}
	pad(20 * len(f.Col))

	// secSpanOff / secEvDay / secEvCount / secEvOff
	for _, v := range f.SpanOff {
		enc.u32(v)
		if len(enc.buf) >= 1<<16 {
			enc.flush()
		}
	}
	pad(4 * len(f.SpanOff))
	for _, d := range f.EvDay {
		enc.u32(uint32(d))
		if len(enc.buf) >= 1<<16 {
			enc.flush()
		}
	}
	pad(4 * len(f.EvDay))
	for _, c := range f.EvCount {
		enc.u32(uint32(c))
		if len(enc.buf) >= 1<<16 {
			enc.flush()
		}
	}
	pad(4 * len(f.EvCount))
	for _, v := range f.EvOff {
		enc.u32(v)
		if len(enc.buf) >= 1<<16 {
			enc.flush()
		}
	}
	pad(4 * len(f.EvOff))

	// secCounts
	enc.u32(uint32(len(counts)))
	for _, c := range counts {
		enc.u32(uint32(len(c.Collector)))
		enc.bytesPad4([]byte(c.Collector))
		enc.u64(c.Records)
	}
	pad(countsSize(counts))

	// secLineage
	enc.u32(uint32(lin.MaxDay))
	pad(lineageSize)

	// secCursors
	enc.u32(uint32(len(lin.Cursors)))
	for _, c := range lin.Cursors {
		enc.u32(uint32(len(c.Collector)))
		enc.bytesPad4([]byte(c.Collector))
		enc.u64(c.Size)
		enc.bytesPad4(c.Sum[:])
	}
	pad(cursorsSize(lin.Cursors))

	enc.flush()
	if cw.err != nil {
		return cw.err
	}

	// Finalize the header.
	copy(hdr[0:8], magic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], Version)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(sections)))
	copy(hdr[16:48], digest[:])
	binary.LittleEndian.PutUint64(hdr[48:56], cw.n)
	binary.LittleEndian.PutUint32(hdr[56:60], cw.crc)
	if _, err = tmp.WriteAt(hdr[:], 0); err != nil {
		return err
	}
	// Durability point for the contents: everything above is in the
	// page cache until this fsync returns.
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = fsys.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// Durability point for the name: the rename itself lives in the
	// directory's blocks and survives power loss only once the
	// directory is synced.
	return fsys.SyncDir(dir)
}

// --- decoding -----------------------------------------------------------

// Load reads, verifies, and reconstructs the snapshot at path. digest
// must be the caller's fresh DigestMRT of the archive about to be
// analyzed; a stored digest that differs fails with ErrStale. On linux
// the file is memory-mapped and the index adopts the mapped numeric
// columns without copying (keep the Snapshot alive — and un-Closed —
// as long as the index is in use); elsewhere the file is read whole.
func Load(path string, digest [32]byte) (*Snapshot, error) {
	data, unmap, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	snap, err := decode(data, digest)
	if err != nil {
		if unmap != nil {
			unmap()
		}
		return nil, err
	}
	if unmap != nil {
		snap.mapped = data
	}
	snap.unmap = unmap
	return snap, nil
}

// DropPages hints the OS that the snapshot's mapped pages are no
// longer needed (madvise MADV_DONTNEED on linux; a no-op elsewhere and
// for mapping-free snapshots). The mapping stays valid — a read-only
// private file mapping refaults dropped pages from the file — so this
// is safe even with readers in flight; eviction calls it to return a
// cold shard's RSS ahead of the refcount drain.
func (s *Snapshot) DropPages() {
	if s.mapped != nil {
		dropPages(s.mapped)
	}
}

// reverify proves the mapping still holds the bytes Load verified and
// decoded: the same header, and a payload matching its CRC. A re-fault
// of an evicted shard pays this instead of a decode; any mismatch is
// ErrCorrupt. A read-whole snapshot owns its bytes: nothing to prove.
func (s *Snapshot) reverify() error {
	if s.mapped == nil {
		return nil
	}
	if h, err := decodeHeader(s.mapped); err != nil || h != s.hdr {
		return fmt.Errorf("%w: header changed since load", ErrCorrupt)
	}
	if crc32.Checksum(s.mapped[headerSize:headerSize+s.hdr.paylen], castagnoli) != s.hdr.crc {
		return fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	return nil
}

func decode(data []byte, digest [32]byte) (*Snapshot, error) {
	hdr, err := decodeHeader(data)
	if err != nil {
		return nil, err
	}
	nsec := int(hdr.nsec)
	paylen := hdr.paylen
	if paylen > uint64(len(data)-headerSize) {
		return nil, fmt.Errorf("%w: payload %d bytes, file holds %d", ErrTruncated, paylen, len(data)-headerSize)
	}
	payload := data[headerSize : headerSize+int(paylen)]
	if crc := crc32.Checksum(payload, castagnoli); crc != hdr.crc {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	if hdr.digest != digest {
		return nil, ErrStale
	}

	if nsec < 0 || nsec*tableEntry > len(payload) {
		return nil, fmt.Errorf("%w: section table overruns payload", ErrCorrupt)
	}
	secs := make(map[uint32][]byte, nsec)
	for i := 0; i < nsec; i++ {
		e := payload[i*tableEntry : (i+1)*tableEntry]
		id := binary.LittleEndian.Uint32(e[0:4])
		off := binary.LittleEndian.Uint64(e[8:16])
		length := binary.LittleEndian.Uint64(e[16:24])
		if off > uint64(len(payload)) || length > uint64(len(payload))-off {
			return nil, fmt.Errorf("%w: section %d out of bounds", ErrCorrupt, id)
		}
		if _, dup := secs[id]; dup {
			return nil, fmt.Errorf("%w: duplicate section %d", ErrCorrupt, id)
		}
		secs[id] = payload[off : off+length]
	}
	need := func(id uint32) ([]byte, error) {
		b, ok := secs[id]
		if !ok {
			return nil, fmt.Errorf("%w: missing section %d", ErrCorrupt, id)
		}
		return b, nil
	}

	snap := Snapshot{Digest: hdr.digest, hdr: hdr}

	meta, err := need(secMeta)
	if err != nil {
		return nil, err
	}
	if len(meta) != 8 {
		return nil, fmt.Errorf("%w: meta section %d bytes", ErrCorrupt, len(meta))
	}
	snap.Window = timex.Range{
		First: timex.Day(int32(binary.LittleEndian.Uint32(meta[0:4]))),
		Last:  timex.Day(int32(binary.LittleEndian.Uint32(meta[4:8]))),
	}

	peers, err := decodePeers(secs[secPeers])
	if err != nil {
		return nil, err
	}
	addrs, err := need(secPrefixAddrs)
	if err != nil {
		return nil, err
	}
	bits, err := need(secPrefixBits)
	if err != nil {
		return nil, err
	}
	prefixes, err := decodePrefixes(addrs, bits)
	if err != nil {
		return nil, err
	}
	paths, err := decodePaths(secs[secPaths])
	if err != nil {
		return nil, err
	}
	spansB, err := need(secSpans)
	if err != nil {
		return nil, err
	}
	if len(spansB)%20 != 0 {
		return nil, fmt.Errorf("%w: span section %d bytes", ErrCorrupt, len(spansB))
	}
	spanOffB, err := need(secSpanOff)
	if err != nil {
		return nil, err
	}
	evDayB, err := need(secEvDay)
	if err != nil {
		return nil, err
	}
	evCountB, err := need(secEvCount)
	if err != nil {
		return nil, err
	}
	evOffB, err := need(secEvOff)
	if err != nil {
		return nil, err
	}
	for _, b := range [][]byte{spanOffB, evDayB, evCountB, evOffB} {
		if len(b)%4 != 0 {
			return nil, fmt.Errorf("%w: missized numeric section", ErrCorrupt)
		}
	}
	snap.Counts, err = decodeCounts(secs[secCounts])
	if err != nil {
		return nil, err
	}
	snap.Lineage, err = decodeLineage(secs[secLineage], secs[secCursors])
	if err != nil {
		return nil, err
	}

	frozen := &rib.Frozen{
		Peers:    peers,
		Prefixes: prefixes,
		Paths:    paths,
		Col:      decodeSpans(spansB),
		SpanOff:  decodeU32s(spanOffB),
		EvDay:    decodeDays(evDayB),
		EvCount:  decodeI32s(evCountB),
		EvOff:    decodeU32s(evOffB),
		MaxDay:   snap.Lineage.MaxDay,
	}
	ix, err := rib.FromFrozen(frozen)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	snap.Index = ix
	return &snap, nil
}

// cursor walks a packed section with bounds checks; any overrun sets
// bad and subsequent reads return zeros, checked once at the end.
type cursor struct {
	b   []byte
	off int
	bad bool
}

func (c *cursor) u32() uint32 {
	if c.bad || c.off+4 > len(c.b) {
		c.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v
}

func (c *cursor) u64() uint64 {
	if c.bad || c.off+8 > len(c.b) {
		c.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v
}

func (c *cursor) stringPad4(n int) string {
	if c.bad || n < 0 || c.off+pad4(n) > len(c.b) {
		c.bad = true
		return ""
	}
	s := string(c.b[c.off : c.off+n])
	c.off += pad4(n)
	return s
}

func decodePeers(b []byte) ([]rib.PeerRef, error) {
	if b == nil {
		return nil, fmt.Errorf("%w: missing peer section", ErrCorrupt)
	}
	c := &cursor{b: b}
	n := int(c.u32())
	if n < 0 || n > len(b) {
		return nil, fmt.Errorf("%w: peer count %d", ErrCorrupt, n)
	}
	peers := make([]rib.PeerRef, 0, n)
	// Collector names repeat across a collector's peers: share one
	// string per distinct name instead of allocating per peer.
	names := make(map[string]string)
	for i := 0; i < n; i++ {
		addr := netx.Addr(c.u32())
		as := bgp.ASN(c.u32())
		name := c.stringPad4(int(c.u32()))
		if interned, ok := names[name]; ok {
			name = interned
		} else {
			names[name] = name
		}
		peers = append(peers, rib.PeerRef{Collector: name, Addr: addr, AS: as})
	}
	if c.bad {
		return nil, fmt.Errorf("%w: peer section overrun", ErrCorrupt)
	}
	return peers, nil
}

func decodePrefixes(addrs, bits []byte) ([]netx.Prefix, error) {
	if len(addrs)%4 != 0 || len(addrs)/4 != len(bits) {
		return nil, fmt.Errorf("%w: prefix sections %d/%d", ErrCorrupt, len(addrs), len(bits))
	}
	n := len(bits)
	out := make([]netx.Prefix, n)
	for i := 0; i < n; i++ {
		if bits[i] > 32 {
			return nil, fmt.Errorf("%w: prefix length %d", ErrCorrupt, bits[i])
		}
		out[i] = netx.PrefixFrom(netx.Addr(binary.LittleEndian.Uint32(addrs[4*i:])), int(bits[i]))
	}
	return out, nil
}

// decodePaths rebuilds the path dictionary from its four flat columns
// using two arenas — one for all segments, one for all ASNs — so the
// whole dictionary costs a fixed handful of allocations however many
// paths it holds.
func decodePaths(b []byte) ([]bgp.ASPath, error) {
	if b == nil {
		return nil, fmt.Errorf("%w: missing path section", ErrCorrupt)
	}
	c := &cursor{b: b}
	nPaths := c.u64()
	nSegs := c.u64()
	nASNs := c.u64()
	limit := uint64(len(b))
	if nPaths > limit || nSegs > limit || nASNs > limit {
		return nil, fmt.Errorf("%w: path dictionary dimensions", ErrCorrupt)
	}
	segCounts := make([]uint32, nPaths)
	for i := range segCounts {
		segCounts[i] = c.u32()
	}
	segArena := make([]bgp.PathSegment, nSegs)
	for i := range segArena {
		if c.bad || c.off >= len(c.b) {
			c.bad = true
			break
		}
		segArena[i].Type = c.b[c.off]
		c.off++
	}
	c.off = pad4(c.off)
	asnCounts := make([]uint32, nSegs)
	for i := range asnCounts {
		asnCounts[i] = c.u32()
	}
	var asnArena []bgp.ASN
	if c.bad || uint64(len(c.b)-c.off) < 4*nASNs {
		c.bad = true
	} else if nASNs > 0 {
		raw := c.b[c.off : c.off+int(4*nASNs)]
		c.off += int(4 * nASNs)
		if zerocopyEnabled {
			asnArena = asnsZeroCopy(raw)
		}
		if asnArena == nil {
			asnArena = make([]bgp.ASN, nASNs)
			for i := range asnArena {
				asnArena[i] = bgp.ASN(binary.LittleEndian.Uint32(raw[4*i:]))
			}
		}
	}
	if c.bad {
		return nil, fmt.Errorf("%w: path section overrun", ErrCorrupt)
	}

	var segSum, asnSum uint64
	for _, sc := range segCounts {
		segSum += uint64(sc)
	}
	for _, ac := range asnCounts {
		asnSum += uint64(ac)
	}
	if segSum != nSegs || asnSum != nASNs {
		return nil, fmt.Errorf("%w: path dictionary counts disagree", ErrCorrupt)
	}

	paths := make([]bgp.ASPath, nPaths)
	segAt, asnAt := 0, 0
	for i := range paths {
		sc := int(segCounts[i])
		if sc == 0 {
			continue // stored as the nil path, exactly as interned cold
		}
		segs := segArena[segAt : segAt+sc : segAt+sc]
		for j := range segs {
			ac := int(asnCounts[segAt+j])
			segs[j].ASNs = asnArena[asnAt : asnAt+ac : asnAt+ac]
			asnAt += ac
		}
		segAt += sc
		paths[i] = bgp.ASPath(segs)
	}
	return paths, nil
}

func decodeCounts(b []byte) ([]CollectorCount, error) {
	if b == nil {
		return nil, fmt.Errorf("%w: missing counts section", ErrCorrupt)
	}
	c := &cursor{b: b}
	n := int(c.u32())
	if n < 0 || n > len(b) {
		return nil, fmt.Errorf("%w: counts entries %d", ErrCorrupt, n)
	}
	out := make([]CollectorCount, 0, n)
	for i := 0; i < n; i++ {
		name := c.stringPad4(int(c.u32()))
		records := c.u64()
		out = append(out, CollectorCount{Collector: name, Records: records})
	}
	if c.bad {
		return nil, fmt.Errorf("%w: counts section overrun", ErrCorrupt)
	}
	return out, nil
}

// --- numeric column decoding -------------------------------------------
//
// Each decode* tries the platform zero-copy cast first (little-endian
// machines, aligned data: the mapped bytes are the in-memory layout)
// and falls back to an explicit little-endian copy.

// zerocopyEnabled gates every zero-copy cast. It exists so tests on
// little-endian CI can force the copying fallback — the path that is
// otherwise exercised only on big-endian or misaligned mappings.
var zerocopyEnabled = true

func decodeU32s(b []byte) []uint32 {
	if len(b) == 0 {
		return nil
	}
	if zerocopyEnabled {
		if v := u32sZeroCopy(b); v != nil {
			return v
		}
	}
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out
}

func decodeI32s(b []byte) []int32 {
	if len(b) == 0 {
		return nil
	}
	if zerocopyEnabled {
		if v := i32sZeroCopy(b); v != nil {
			return v
		}
	}
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

func decodeDays(b []byte) []timex.Day {
	if len(b) == 0 {
		return nil
	}
	if zerocopyEnabled {
		if v := daysZeroCopy(b); v != nil {
			return v
		}
	}
	out := make([]timex.Day, len(b)/4)
	for i := range out {
		out[i] = timex.Day(int32(binary.LittleEndian.Uint32(b[4*i:])))
	}
	return out
}

func decodeSpans(b []byte) []rib.Span {
	if len(b) == 0 {
		return nil
	}
	if zerocopyEnabled {
		if v := spansZeroCopy(b); v != nil {
			return v
		}
	}
	out := make([]rib.Span, len(b)/20)
	for i := range out {
		e := b[20*i:]
		out[i] = rib.Span{
			Prefix: binary.LittleEndian.Uint32(e[0:4]),
			Peer:   int32(binary.LittleEndian.Uint32(e[4:8])),
			From:   timex.Day(int32(binary.LittleEndian.Uint32(e[8:12]))),
			To:     timex.Day(int32(binary.LittleEndian.Uint32(e[12:16]))),
			Path:   bgp.PathID(binary.LittleEndian.Uint32(e[16:20])),
		}
	}
	return out
}
