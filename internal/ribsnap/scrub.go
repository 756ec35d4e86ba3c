// Background scrub support: incremental re-verification of a snapshot
// file's bytes against the checksum in its header, long after the
// load-time check passed. A snapshot that verified once can still rot —
// disk bitrot, a torn overwrite, an operator truncating the file — and
// a mapped generation serves whatever the page cache hands it, so the
// serving layer re-reads every shard file in small rate-limited steps
// and compares the running CRC-32C against the header.
//
// A pass reads through its own file handle, never a mapping:
//
//   - Reading the fd goes through the same page cache a MAP_PRIVATE
//     mapping of the file is backed by, so resident pages are verified
//     exactly as served, and evicted pages are re-read from disk — which
//     is where rot is caught.
//   - Reading the fd never faults a mapped page, so a file truncated
//     underneath a mapping surfaces as a short read (ErrTruncated), not
//     a SIGBUS in the scrubber.
//   - The fd pins the inode for the pass, so a file renamed over or
//     unlinked mid-pass is verified to the end as the file the pass
//     started on, not confused with its replacement.

package ribsnap

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
)

// Scrub is one incremental verification pass over a snapshot file.
// Step it until done; any error means the file's bytes no longer match
// its header. The pass owns its file handle: Close it when the pass
// completes or is abandoned.
type Scrub struct {
	f      *os.File
	paylen uint64 // payload bytes the header declares
	want   uint32 // payload CRC the header declares
	off    uint64 // payload bytes verified so far
	crc    uint32
}

// OpenScrub starts a verification pass over the snapshot file at path
// without loading it, so a shard that is not resident is verified
// straight from disk without faulting it into the residency budget.
// The header is checked at open; Step then proves the payload matches
// it.
func OpenScrub(path string) (*Scrub, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var hdr [headerSize]byte
	if n, rerr := f.ReadAt(hdr[:], 0); n != headerSize {
		f.Close()
		return nil, fmt.Errorf("%w: scrub: header short (%d bytes): %v", ErrTruncated, n, rerr)
	}
	h, err := decodeHeader(hdr[:])
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Scrub{f: f, paylen: h.paylen, want: h.crc}, nil
}

// Close releases the pass's file handle.
func (sc *Scrub) Close() error { return sc.f.Close() }

// Step verifies up to n more payload bytes and reports whether the
// pass is complete. A short read or a final CRC mismatch returns an
// error wrapping ErrTruncated or ErrCorrupt; the pass is then dead and
// the file's bytes must be considered damaged.
func (sc *Scrub) Step(n int) (done bool, err error) {
	if n <= 0 {
		n = 1 << 20
	}
	if remaining := sc.paylen - sc.off; uint64(n) > remaining {
		n = int(remaining)
	}
	if n > 0 {
		buf := make([]byte, n)
		rn, rerr := sc.f.ReadAt(buf, int64(headerSize)+int64(sc.off))
		if rn != n {
			return false, fmt.Errorf("%w: scrub: payload short at %d/%d bytes: %v",
				ErrTruncated, sc.off+uint64(rn), sc.paylen, rerr)
		}
		sc.crc = crc32.Update(sc.crc, castagnoli, buf)
		sc.off += uint64(n)
	}
	if sc.off < sc.paylen {
		return false, nil
	}
	if sc.crc != sc.want {
		return false, fmt.Errorf("%w: scrub: payload CRC %08x, header says %08x",
			ErrCorrupt, sc.crc, sc.want)
	}
	return true, nil
}

// Offset reports how many payload bytes the pass has verified.
func (sc *Scrub) Offset() uint64 { return sc.off }

// header is the parsed fixed header, shared by decode and OpenScrub.
type header struct {
	version uint32
	nsec    uint32
	digest  [32]byte
	paylen  uint64
	crc     uint32
}

// decodeHeader validates the fixed 64-byte header fields (not the
// payload bounds, which need the file size).
func decodeHeader(b []byte) (header, error) {
	var h header
	if len(b) < headerSize {
		return h, fmt.Errorf("%w: %d header bytes", ErrTruncated, len(b))
	}
	if string(b[0:8]) != string(magic[:]) {
		return h, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	h.version = le32(b[8:12])
	if h.version != Version {
		return h, fmt.Errorf("%w: file version %d, want %d", ErrVersion, h.version, Version)
	}
	if le32(b[60:64]) != 0 {
		return h, fmt.Errorf("%w: reserved header bytes set", ErrCorrupt)
	}
	h.nsec = le32(b[12:16])
	copy(h.digest[:], b[16:48])
	h.paylen = le64(b[48:56])
	h.crc = le32(b[56:60])
	return h, nil
}

func le32(b []byte) uint32 { return binary.LittleEndian.Uint32(b) }
func le64(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }
