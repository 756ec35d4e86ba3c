// Generation layout: one generation directory (gen-<digest16>/) holding
// K independently mmap-able shard snapshots (shard-<i>.ribsnap, each a
// standard snapshot file over one prefix range) plus a small shard
// manifest (shards.manifest) recording the boundary table — the first
// prefix and prefix count of every shard — keyed to the archive digest.
// A monolith is K = 1, and its shard-0.ribsnap is byte for byte the
// snapshot of the whole index. The shard files use the exact v1
// snapshot format, so the durable-write discipline, load-time CRC and
// digest checks, and the incremental scrubber apply per shard; the
// manifest is written with the same temp+fsync+rename+syncdir
// sequence.
//
// ShardSet is the residency manager over one such directory. A shard
// is loaded on first touch (mmap, header, digest and CRC checks,
// decode) and its decoded snapshot stays for the generation's life. A
// memory budget caps how many shards keep their pages resident; over
// it, the least-recently-used shard's pages are dropped with
// madvise(DONTNEED), and in-flight readers refault them from the file.
// Touching an evicted shard re-faults it: its header and payload CRC
// are checked again against what was decoded, but nothing is rebuilt.
// A multi-year archive therefore serves from a bounded page RSS.
package ribsnap

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"dropscope/internal/netx"
	"dropscope/internal/rib"
	"dropscope/internal/timex"
)

// shardManifestName is the boundary-table file inside a generation
// directory.
const shardManifestName = "shards.manifest"

// shardManifestVersion versions the manifest encoding; the shard
// snapshot files themselves carry the ribsnap Version.
const shardManifestVersion = 1

var shardMagic = [8]byte{'D', 'S', 'S', 'H', 'M', 'A', 'N', 'I'}

// GenDirName returns the generation directory name for a digest.
func GenDirName(digest [32]byte) string {
	return "gen-" + hex.EncodeToString(digest[:8])
}

// ShardFileName returns shard i's snapshot file name.
func ShardFileName(i int) string { return fmt.Sprintf("shard-%d.ribsnap", i) }

// ShardInfo is one shard's boundary-table record.
type ShardInfo struct {
	// Bound is the first (address-ordered) prefix the shard owns; the
	// first shard additionally owns everything below its bound.
	Bound netx.Prefix
	// NumPrefixes is the shard's distinct prefix count.
	NumPrefixes int
}

// ShardManifest is the decoded shards.manifest: the boundary table a
// point query routes through, keyed to the archive digest it was cut
// from.
type ShardManifest struct {
	Digest [32]byte
	Window timex.Range
	Shards []ShardInfo
}

// encodeShardManifest renders the manifest: magic, version, shard
// count, digest, window, per-shard (addr, bits, nprefixes) records,
// and a trailing CRC-32C over everything before it.
func encodeShardManifest(m *ShardManifest) []byte {
	buf := make([]byte, 0, 8+4+4+32+8+12*len(m.Shards)+4)
	buf = append(buf, shardMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, shardManifestVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Shards)))
	buf = append(buf, m.Digest[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Window.First))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Window.Last))
	for _, s := range m.Shards {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Bound.Addr()))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Bound.Bits()))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s.NumPrefixes))
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// ReadShardManifest decodes and verifies a shards.manifest file.
func ReadShardManifest(path string) (*ShardManifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(b) < 8+4+4+32+8+4 {
		return nil, fmt.Errorf("%w: shard manifest %d bytes", ErrTruncated, len(b))
	}
	if string(b[0:8]) != string(shardMagic[:]) {
		return nil, fmt.Errorf("%w: shard manifest bad magic", ErrCorrupt)
	}
	body, tail := b[:len(b)-4], b[len(b)-4:]
	if crc32.Checksum(body, castagnoli) != le32(tail) {
		return nil, fmt.Errorf("%w: shard manifest CRC mismatch", ErrCorrupt)
	}
	if v := le32(b[8:12]); v != shardManifestVersion {
		return nil, fmt.Errorf("%w: shard manifest version %d, want %d", ErrVersion, v, shardManifestVersion)
	}
	k := int(le32(b[12:16]))
	if want := 8 + 4 + 4 + 32 + 8 + 12*k + 4; len(b) != want {
		return nil, fmt.Errorf("%w: shard manifest %d bytes, want %d for %d shards", ErrCorrupt, len(b), want, k)
	}
	m := &ShardManifest{}
	copy(m.Digest[:], b[16:48])
	m.Window = timex.Range{First: timex.Day(le32(b[48:52])), Last: timex.Day(le32(b[52:56]))}
	off := 56
	m.Shards = make([]ShardInfo, k)
	for i := range m.Shards {
		addr := netx.Addr(le32(b[off : off+4]))
		bits := int(le32(b[off+4 : off+8]))
		if bits > 32 {
			return nil, fmt.Errorf("%w: shard %d bound /%d", ErrCorrupt, i, bits)
		}
		m.Shards[i] = ShardInfo{
			Bound:       netx.PrefixFrom(addr, bits),
			NumPrefixes: int(le32(b[off+8 : off+12])),
		}
		off += 12
	}
	return m, nil
}

// writeShardManifestFS durably writes the manifest into dir with the
// same temp → fsync → rename → fsync-dir sequence every snapshot write
// uses.
func writeShardManifestFS(fsys FS, dir string, m *ShardManifest) (err error) {
	tmp, err := fsys.CreateTemp(dir, tempPattern)
	if err != nil {
		return fmt.Errorf("ribsnap: shard manifest temp: %w", err)
	}
	tmpName := tmp.Name()
	defer func() {
		if err != nil {
			tmp.Close()
			fsys.Remove(tmpName)
		}
	}()
	if _, err = tmp.Write(encodeShardManifest(m)); err != nil {
		return fmt.Errorf("ribsnap: shard manifest write: %w", err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("ribsnap: shard manifest sync: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("ribsnap: shard manifest close: %w", err)
	}
	if err = fsys.Rename(tmpName, filepath.Join(dir, shardManifestName)); err != nil {
		return fmt.Errorf("ribsnap: shard manifest rename: %w", err)
	}
	if err = fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("ribsnap: shard manifest dir sync: %w", err)
	}
	return nil
}

// ShardSet manages the residency of one generation directory.
// Construct with OpenShardSet; hand queries to shards through Handles
// (or Sharded). All residency state sits behind one mutex, which is
// never held across file I/O: faulting a shard in is single-flight per
// shard and runs outside the lock, so queries on resident shards do
// not queue behind a neighbour's fault, and the resident fast path
// (one lock, one refcount bump) allocates nothing.
type ShardSet struct {
	dir     string
	digest  [32]byte
	man     *ShardManifest
	window  timex.Range
	counts  []CollectorCount
	peers   []rib.PeerRef
	lineage *Lineage

	mu          sync.Mutex
	slots       []*Snapshot  // decoded on first touch; nil until then, and after MarkBad or Close
	resident    []bool       // slot i's pages count against the budget
	bad         []bool       // scrub or fault found rot; fail fast, serve the rest
	lastUse     []int64      // LRU clock value per shard
	loading     []*shardLoad // non-nil while shard i is being faulted in
	tick        int64
	maxResident int // <= 0 means unlimited
	closed      bool
	pin         rib.ShardRelease // Querier's hold on a K = 1 set's shard

	faults    atomic.Int64 // completed fault-ins: first loads (including the eager first) and re-faults
	evictions atomic.Int64 // shards evicted for budget
}

// OpenShardSet opens the generation under dir, verifying the
// manifest against the expected archive digest. maxResident caps how
// many shards keep their pages resident at once (<= 0 means all of
// them). The first shard is faulted in eagerly: its header supplies
// the window and collector counts (every shard file carries identical
// copies) and the global peer table.
func OpenShardSet(dir string, digest [32]byte, maxResident int) (*ShardSet, error) {
	man, err := ReadShardManifest(filepath.Join(dir, shardManifestName))
	if err != nil {
		return nil, err
	}
	if man.Digest != digest {
		return nil, ErrStale
	}
	k := len(man.Shards)
	if k == 0 {
		return nil, fmt.Errorf("%w: shard manifest lists no shards", ErrCorrupt)
	}
	ss := &ShardSet{
		dir:         dir,
		digest:      digest,
		man:         man,
		slots:       make([]*Snapshot, k),
		resident:    make([]bool, k),
		bad:         make([]bool, k),
		lastUse:     make([]int64, k),
		loading:     make([]*shardLoad, k),
		maxResident: maxResident,
	}
	snap, err := Load(ss.ShardPath(0), digest)
	if err != nil {
		return nil, fmt.Errorf("ribsnap: shard 0: %w", err)
	}
	ss.slots[0] = snap
	ss.resident[0] = true
	ss.tick = 1
	ss.lastUse[0] = 1
	ss.faults.Add(1)
	// Decoded by copy in every snapshot: safe past shard-0 MarkBad.
	ss.window = snap.Window
	ss.counts = snap.Counts
	ss.peers = snap.Index.Peers()
	ss.lineage = snap.Lineage
	return ss, nil
}

// Window returns the study window the shards were frozen over.
func (ss *ShardSet) Window() timex.Range { return ss.window }

// Counts returns the per-collector record counts preserved at freeze.
func (ss *ShardSet) Counts() []CollectorCount { return ss.counts }

// Peers returns the global peer table shared by every shard.
func (ss *ShardSet) Peers() []rib.PeerRef { return ss.peers }

// Digest returns the archive digest the generation is keyed on.
func (ss *ShardSet) Digest() [32]byte { return ss.digest }

// Lineage returns the delta-append lineage the shards were written
// with (every shard file carries an identical copy).
func (ss *ShardSet) Lineage() *Lineage { return ss.lineage }

// NumShards returns the shard count.
func (ss *ShardSet) NumShards() int { return len(ss.slots) }

// ShardPath returns shard i's snapshot file path.
func (ss *ShardSet) ShardPath(i int) string {
	return filepath.Join(ss.dir, ShardFileName(i))
}

// Manifest returns the decoded boundary table.
func (ss *ShardSet) Manifest() *ShardManifest { return ss.man }

// shardLoad is one in-flight fault-in: later acquirers of the same
// shard wait on done instead of loading or checking it again.
type shardLoad struct {
	done chan struct{}
	err  error // set before done is closed
}

// AcquireIndex pins shard i's index: resident shards return
// immediately (no allocation); other shards fault in — loaded on first
// touch, reverified after an eviction — single-flight per shard and
// outside the set lock, so a herd on a cold range checks it once and
// its neighbours on resident shards are not held up. A fault that finds
// the shard corrupt quarantines it as MarkBad does. The returned release
// token must be released exactly once; until then the index stays valid
// even if the shard is evicted or the set closed underneath.
func (ss *ShardSet) AcquireIndex(i int) (*rib.Index, rib.ShardRelease, error) {
	ss.mu.Lock()
	for {
		if err := ss.usableLocked(i); err != nil {
			ss.mu.Unlock()
			return nil, nil, err
		}
		if ss.resident[i] {
			snap := ss.slots[i]
			snap.Acquire() // open while in its slot: Close and MarkBad clear the slot under ss.mu
			ss.tick++
			ss.lastUse[i] = ss.tick
			ss.mu.Unlock()
			return snap.Index, snap, nil
		}
		ld := ss.loading[i]
		if ld == nil {
			break
		}
		ss.mu.Unlock()
		<-ld.done
		if ld.err != nil {
			return nil, nil, ld.err
		}
		ss.mu.Lock() // resident now, unless it was evicted again already
	}
	ld := &shardLoad{done: make(chan struct{})}
	ss.loading[i] = ld
	// The fault's own reference keeps MarkBad or Close from unmapping it.
	snap := ss.slots[i]
	if snap != nil {
		snap.Acquire()
	}
	ss.mu.Unlock()

	var err error
	if snap != nil {
		err = snap.reverify()
	} else if snap, err = Load(ss.ShardPath(i), ss.digest); err == nil {
		snap.Acquire() // fresh snapshot: cannot fail
	}
	if err != nil {
		err = fmt.Errorf("ribsnap: shard %d: %w", i, err)
	}

	ss.mu.Lock()
	ss.loading[i] = nil
	if errors.Is(err, ErrCorrupt) {
		ss.markBadLocked(i)
	} else if err == nil {
		// The set may have been closed, or the shard marked bad, while
		// the fault ran.
		err = ss.usableLocked(i)
	}
	if err != nil {
		if snap != nil && ss.slots[i] != snap {
			snap.Close() // never installed, or already closed by MarkBad or Close
		}
		ss.mu.Unlock()
		if snap != nil {
			snap.Release()
		}
		ld.err = err
		close(ld.done)
		return nil, nil, err
	}
	ss.faults.Add(1)
	ss.slots[i] = snap
	ss.resident[i] = true
	ss.tick++
	ss.lastUse[i] = ss.tick
	ss.evictLocked(i)
	ss.mu.Unlock()
	close(ld.done)
	return snap.Index, snap, nil
}

// usableLocked reports why shard i cannot be acquired, nil when it can.
func (ss *ShardSet) usableLocked(i int) error {
	switch {
	case ss.closed:
		return ErrClosed
	case i < 0 || i >= len(ss.slots):
		return fmt.Errorf("ribsnap: shard %d of %d", i, len(ss.slots))
	case ss.bad[i]:
		return fmt.Errorf("%w: shard %d marked bad", ErrCorrupt, i)
	}
	return nil
}

// evictLocked drops the pages of least-recently-used resident shards
// (never keep) until the budget holds; their decoded snapshots stay for
// the next fault to reverify. A shard being faulted in is not counted
// until its fault completes, so the budget is a target the set
// converges to, not a hard ceiling during overlap.
func (ss *ShardSet) evictLocked(keep int) {
	for ss.maxResident > 0 && ss.residentLocked() > ss.maxResident {
		victim := -1
		for j, r := range ss.resident {
			if !r || j == keep {
				continue
			}
			if victim < 0 || ss.lastUse[j] < ss.lastUse[victim] {
				victim = j
			}
		}
		if victim < 0 {
			return
		}
		ss.resident[victim] = false
		ss.evictions.Add(1)
		ss.slots[victim].DropPages()
	}
}

// MarkBad quarantines shard i after a scrub or fault-in finding: its
// snapshot is closed (in-flight readers drain against the mapping) and
// every future AcquireIndex fails fast with ErrCorrupt, so the damage
// degrades only this shard's prefix range.
func (ss *ShardSet) MarkBad(i int) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.markBadLocked(i)
}

func (ss *ShardSet) markBadLocked(i int) {
	if i < 0 || i >= len(ss.slots) || ss.bad[i] {
		return
	}
	ss.bad[i] = true
	ss.resident[i] = false
	if snap := ss.slots[i]; snap != nil {
		ss.slots[i] = nil
		snap.Close()
	}
}

// Resident reports how many shards currently count against the budget.
func (ss *ShardSet) Resident() int {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.residentLocked()
}

func (ss *ShardSet) residentLocked() int {
	n := 0
	for _, r := range ss.resident {
		if r {
			n++
		}
	}
	return n
}

// Faults reports how many shard fault-ins the set has completed.
func (ss *ShardSet) Faults() int64 { return ss.faults.Load() }

// Evictions reports how many budget evictions the set has performed.
func (ss *ShardSet) Evictions() int64 { return ss.evictions.Load() }

// ResidentShards reports per-shard residency.
func (ss *ShardSet) ResidentShards() []bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return append([]bool(nil), ss.resident...)
}

// IsBad reports whether shard i has been marked bad by a scrub or
// fault-in finding.
func (ss *ShardSet) IsBad(i int) bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return i >= 0 && i < len(ss.bad) && ss.bad[i]
}

// BadShards reports per-shard scrub-degraded state.
func (ss *ShardSet) BadShards() []bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return append([]bool(nil), ss.bad...)
}

// Close retires the set: every loaded shard is closed (in-flight
// readers drain against their mappings) and future acquires fail.
func (ss *ShardSet) Close() error {
	ss.mu.Lock()
	if ss.closed {
		ss.mu.Unlock()
		return nil
	}
	ss.closed = true
	var snaps []*Snapshot
	for i, snap := range ss.slots {
		if snap != nil {
			snaps = append(snaps, snap)
			ss.slots[i] = nil
		}
		ss.resident[i] = false
	}
	pin := ss.pin
	ss.pin = nil
	ss.mu.Unlock()
	var err error
	for _, snap := range snaps {
		if cerr := snap.Close(); err == nil {
			err = cerr
		}
	}
	if pin != nil {
		pin.Release()
	}
	return err
}

// setShard adapts one shard index to rib.ShardHandle.
type setShard struct {
	ss *ShardSet
	i  int
}

func (h setShard) AcquireIndex() (*rib.Index, rib.ShardRelease, error) {
	return h.ss.AcquireIndex(h.i)
}

// Handles returns the set's shards as rib.ShardHandle values, in shard
// order.
func (ss *ShardSet) Handles() []rib.ShardHandle {
	out := make([]rib.ShardHandle, len(ss.slots))
	for i := range out {
		out[i] = setShard{ss: ss, i: i}
	}
	return out
}

// Sharded assembles the fan-out querier over the set, routing through
// the manifest's boundary table.
func (ss *ShardSet) Sharded(workers int) (*rib.Sharded, error) {
	bounds := make([]netx.Prefix, len(ss.man.Shards))
	counts := make([]int, len(ss.man.Shards))
	for i, si := range ss.man.Shards {
		bounds[i] = si.Bound
		counts[i] = si.NumPrefixes
	}
	return rib.NewSharded(ss.Handles(), bounds, counts, ss.peers, workers)
}

// Querier returns the set's query view, to be taken once. For K > 1 it
// is the fan-out querier (Sharded). A K = 1 set is the monolith, served
// as its one shard's own index, pinned until Close: the resident
// request path has no fan-out and no per-query acquire, and once
// MarkBad quarantines the shard it keeps answering from the pinned
// mapping while the reload supervisor rebuilds.
func (ss *ShardSet) Querier(workers int) (rib.Querier, error) {
	if len(ss.slots) > 1 {
		return ss.Sharded(workers)
	}
	ix, rel, err := ss.AcquireIndex(0)
	if err != nil {
		return nil, err
	}
	ss.mu.Lock()
	ss.pin = rel
	ss.mu.Unlock()
	return ix, nil
}

// Master wraps the set behind a mapping-free Snapshot whose lifecycle
// closes it: the serving layer's generation plumbing (refcount pinning,
// Close-on-swap, drain accounting) then manages a store generation
// exactly like an in-memory one — the set shuts down when the old
// generation's last in-flight request releases.
func (ss *ShardSet) Master() *Snapshot {
	return &Snapshot{
		Window: ss.window,
		Counts: ss.counts,
		Digest: ss.digest,
		unmap:  ss.Close,
	}
}
