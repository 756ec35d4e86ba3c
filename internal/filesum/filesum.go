// Package filesum is the archive manifest: per archive file, its path,
// size, mtime, ctime, device, inode and SHA-256, so a load learns an
// unchanged file's sum from a stat, not a read — git's index applied to
// the archive (DESIGN.md, "Warm starts").
//
// Layout (little-endian): the store's frame (fsio.Frame: "DSAM",
// version u32, CRC-32C trailer) around the recording time i64 (ns), the
// row count u32 and the rows in path order — path length u16, path,
// size, mtime, ctime, device, inode (8 bytes each), SHA-256.
package filesum

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash"
	"io"
	"maps"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dropscope/internal/fsio"
)

const (
	magic   = "DSAM"
	version = 1
	header  = 8 + 4                 // recording time, row count
	rowSize = 2 + 5*8 + sha256.Size // path length, stat tuple, SHA-256; then the path
	// racyMargin is above the coarsest file timestamp tick: a write after
	// the read that hashed a file cannot leave the recorded times.
	racyMargin = int64(time.Second)
)

var (
	errFormat = errors.New("filesum: malformed archive manifest")
	opened    atomic.Int64
)

// Opened returns how many files the package has opened to read.
func Opened() int64 { return opened.Load() }

// open is the one way the package opens a file.
func open(path string) (file, error) {
	opened.Add(1)
	return openFile(path)
}

// Sum is a file's size and SHA-256.
type Sum struct {
	Size uint64
	SHA  [sha256.Size]byte
}

// Stat is the tuple a row is matched on; times are in nanoseconds.
type Stat struct {
	Size, Dev, Ino uint64
	Mtime, Ctime   int64
}

type row struct {
	Stat
	sha [sha256.Size]byte
}

// Manifest is the rows one load reads its archive's sums from and
// records new ones into. It is safe for concurrent use. A row serves
// only while the file's whole stat tuple is the recorded one and its
// mtime and ctime are racyMargin older than the recording time (the
// racy-git rule), and is recorded only from a read the file held still
// for: the same tuple before and after it.
type Manifest struct {
	root string
	// start is when this load began: the recording time of the rows it
	// writes. recorded is when the rows read in (old) were recorded;
	// both are decoded from read on first use, so a load that sums
	// nothing, or a delta build before it does, holds no rows.
	start, recorded int64
	read            func() []byte
	once            sync.Once
	old             map[string]row

	mu    sync.Mutex
	cur   map[string]row // rows this load found to hold or recorded
	fresh bool           // cur holds a recorded row
}

// Open returns the manifest of the archive under root whose encoding
// read returns (nil read, or an encoding that does not decode: none).
func Open(root string, read func() []byte) *Manifest {
	return &Manifest{root: root, start: time.Now().UnixNano(), read: read, cur: map[string]row{}}
}

// Path returns the file name of the archive-relative path rel.
func (m *Manifest) Path(rel string) string {
	return filepath.Join(m.root, filepath.FromSlash(rel))
}

// decoded returns the rows read in, decoding them on first use.
func (m *Manifest) decoded() map[string]row {
	m.once.Do(func() {
		if m.read != nil {
			m.recorded, m.old, _ = decode(m.read())
		}
	})
	return m.old
}

// candidate returns rel's row if it could serve: it is recorded, and
// not racy. Only then is the file's tuple worth a stat.
func (m *Manifest) candidate(rel string) (row, bool) {
	r, ok := m.decoded()[rel]
	safe := m.recorded - racyMargin
	return r, ok && r.Mtime < safe && r.Ctime < safe
}

func (m *Manifest) keep(rel string, r row, fresh bool) Sum {
	m.mu.Lock()
	m.cur[rel] = r
	m.fresh = m.fresh || fresh
	m.mu.Unlock()
	return Sum{r.Size, r.sha}
}

// Stat returns the stat tuple of the file at rel; ok is false when it
// does not stat, or the platform gives no tuple.
func (m *Manifest) Stat(rel string) (Stat, bool) { return statPath(m.Path(rel)) }

// Record keeps sum, from the caller's own read of the file at rel, as
// its row if the file still stats as before, taken ahead of the read
// (a zero before, of a file that did not stat, records nothing).
func (m *Manifest) Record(rel string, before Stat, sum Sum) {
	if s, ok := m.Stat(rel); ok && s == before && s.Size == sum.Size {
		m.keep(rel, row{s, sum.SHA}, true)
	}
}

// SumAll returns the sums of the files at rels, in order, on up to
// workers goroutines (<= 0: runtime.GOMAXPROCS(0)): a file's row's when
// the row holds, which costs a stat, else a read that records a row.
func (m *Manifest) SumAll(rels []string, workers int) ([]Sum, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sums, errs := make([]Sum, len(rels)), make([]error, len(rels))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(workers, len(rels)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, buf := sha256.New(), make([]byte, 64<<10)
			for i := int(next.Add(1) - 1); i < len(rels); i = int(next.Add(1) - 1) {
				sums[i], errs[i] = m.sum(rels[i], h, buf)
			}
		}()
	}
	wg.Wait()
	return sums, errors.Join(errs...)
}

// sum is one file's SumAll, through h and buf.
func (m *Manifest) sum(rel string, h hash.Hash, buf []byte) (Sum, error) {
	path := m.Path(rel)
	r, cand := m.candidate(rel)
	var before Stat
	var ok bool
	if cand {
		if before, ok = statPath(path); ok && before == r.Stat {
			return m.keep(rel, r, false), nil
		}
	}
	f, err := open(path)
	if err != nil {
		return Sum{}, err
	}
	defer f.Close()
	if !ok {
		before, ok = statFile(f)
	}
	h.Reset()
	var n int64
	for err == nil {
		var k int
		k, err = f.Read(buf)
		h.Write(buf[:k])
		n += int64(k)
	}
	if err != io.EOF {
		return Sum{}, err
	}
	sum := Sum{Size: uint64(n)}
	copy(sum.SHA[:], h.Sum(buf[:0]))
	if after, aok := statFile(f); ok && aok && after == before && before.Size == sum.Size {
		m.keep(rel, row{before, sum.SHA}, true)
	}
	return sum, nil
}

// Read reads the file at rel into buf, replacing its contents. With
// hash it also returns the file's sum: its row's when the row holds for
// the file as read, else the SHA-256 of the bytes, recorded as its row.
func (m *Manifest) Read(rel string, buf *bytes.Buffer, hash bool) (Sum, error) {
	f, err := open(m.Path(rel))
	if err != nil {
		return Sum{}, err
	}
	defer f.Close()
	before, ok := statFile(f)
	buf.Reset()
	if _, err := buf.ReadFrom(f); err != nil || !hash {
		return Sum{}, err
	}
	after, aok := statFile(f)
	still := ok && aok && after == before && before.Size == uint64(buf.Len())
	if r, cand := m.candidate(rel); still && cand && r.Stat == before {
		return m.keep(rel, r, false), nil
	}
	sum := Sum{uint64(buf.Len()), sha256.Sum256(buf.Bytes())}
	if still {
		m.keep(rel, row{before, sum.SHA}, true)
	}
	return sum, nil
}

// Encode returns the manifest this load leaves — the rows it found to
// hold or recorded, and each older row that still holds — and whether
// it differs from the one Open read: a load that recorded no row and
// dropped none writes nothing. It is the load's last use of m.
func (m *Manifest) Encode() ([]byte, bool) {
	old := m.decoded()
	m.mu.Lock()
	defer m.mu.Unlock()
	rows, changed := m.cur, m.fresh
	for rel := range old {
		if _, ok := rows[rel]; ok {
			continue
		}
		if r, cand := m.candidate(rel); cand {
			if s, ok := m.Stat(rel); ok && s == r.Stat {
				rows[rel] = r
				continue
			}
		}
		changed = true
	}
	if !changed {
		return nil, false
	}
	return encode(m.start, rows), true
}

func encode(recorded int64, rows map[string]row) []byte {
	b := binary.LittleEndian.AppendUint64(fsio.Frame(magic, version), uint64(recorded))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(rows)))
	for _, p := range slices.Sorted(maps.Keys(rows)) {
		r := rows[p]
		b = append(binary.LittleEndian.AppendUint16(b, uint16(len(p))), p...)
		for _, v := range [...]uint64{r.Size, uint64(r.Mtime), uint64(r.Ctime), r.Dev, r.Ino} {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
		b = append(b, r.sha[:]...)
	}
	return fsio.Seal(b)
}

// decode parses an encoding: another version, a bad checksum, paths out
// of order or any byte out of place fails.
func decode(b []byte) (recorded int64, rows map[string]row, err error) {
	body, err := fsio.Open(b, magic, version)
	if err != nil || len(body) < header {
		return 0, nil, errFormat
	}
	recorded = int64(binary.LittleEndian.Uint64(body))
	n, rest := int(binary.LittleEndian.Uint32(body[8:])), body[header:]
	if n > len(rest)/rowSize {
		return 0, nil, errFormat
	}
	// The paths are substrings of one copy of the rows, not a string each.
	text, prev := string(rest), ""
	rows = make(map[string]row, n)
	for i := range n {
		l := 0
		if len(rest) >= 2 {
			l = int(binary.LittleEndian.Uint16(rest))
		}
		at := len(text) - len(rest) + 2
		if len(rest) < rowSize+l || (i > 0 && text[at:at+l] <= prev) {
			return 0, nil, errFormat
		}
		p, f := text[at:at+l], rest[2+l:]
		u := func(k int) uint64 { return binary.LittleEndian.Uint64(f[8*k:]) }
		r := row{Stat: Stat{Size: u(0), Mtime: int64(u(1)), Ctime: int64(u(2)), Dev: u(3), Ino: u(4)}}
		copy(r.sha[:], f[40:])
		rows[p], prev, rest = r, p, rest[rowSize+l:]
	}
	if len(rest) != 0 {
		return 0, nil, errFormat
	}
	return recorded, rows, nil
}
