// Package mrt implements the MRT routing-information export format
// (RFC 6396) used by RouteViews and RIPE RIS archives: the common record
// header, TABLE_DUMP_V2 RIB snapshots (PEER_INDEX_TABLE and
// RIB_IPV4_UNICAST), and BGP4MP_MESSAGE_AS4 update records.
//
// Reader streams records from an io.Reader without slurping the file;
// Writer is its inverse. Both operate on the same typed records, so a
// write→read round trip is lossless.
//
// The Reader has two modes. Strict (the default) fails on the first
// malformed record with an error carrying the record index and byte
// offset. Lenient — enabled with the Lenient option — resynchronizes
// past corrupt, truncated, and unsupported records, counting and
// classifying every skip, so a damaged archive still yields all of its
// decodable records.
package mrt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"dropscope/internal/bgp"
	"dropscope/internal/ingest"
	"dropscope/internal/netx"
)

// MRT record types and subtypes used by this pipeline (RFC 6396 §4).
const (
	TypeTableDumpV2 = 13
	TypeBGP4MP      = 16

	SubtypePeerIndexTable = 1
	SubtypeRIBIPv4Unicast = 2

	SubtypeBGP4MPMessageAS4 = 4
)

// Record is any decoded MRT record.
type Record interface {
	// Timestamp returns the record's header timestamp.
	Timestamp() time.Time
	mrtRecord()
}

// Peer identifies one collector peer in a PEER_INDEX_TABLE.
type Peer struct {
	BGPID netx.Addr
	Addr  netx.Addr
	AS    bgp.ASN
}

// PeerIndexTable is the TABLE_DUMP_V2 peer index that RIB entries
// reference by position.
type PeerIndexTable struct {
	When        time.Time
	CollectorID netx.Addr
	ViewName    string
	Peers       []Peer
}

func (p *PeerIndexTable) Timestamp() time.Time { return p.When }
func (p *PeerIndexTable) mrtRecord()           {}

// RIBEntry is one peer's path for the prefix of a RIB_IPV4_UNICAST record.
type RIBEntry struct {
	PeerIndex      uint16
	OriginatedTime time.Time
	Attrs          bgp.Attrs
}

// RIBPrefix is a TABLE_DUMP_V2 RIB_IPV4_UNICAST record: every peer's best
// path for one prefix at dump time.
type RIBPrefix struct {
	When     time.Time
	Sequence uint32
	Prefix   netx.Prefix
	Entries  []RIBEntry
}

func (r *RIBPrefix) Timestamp() time.Time { return r.When }
func (r *RIBPrefix) mrtRecord()           {}

// BGP4MPMessage is a BGP4MP_MESSAGE_AS4 record carrying one BGP UPDATE
// received by the collector from a peer.
type BGP4MPMessage struct {
	When      time.Time
	PeerAS    bgp.ASN
	LocalAS   bgp.ASN
	Interface uint16
	PeerAddr  netx.Addr
	LocalAddr netx.Addr
	Update    *bgp.Update
}

func (m *BGP4MPMessage) Timestamp() time.Time { return m.When }
func (m *BGP4MPMessage) mrtRecord()           {}

// Decode errors.
var (
	ErrTruncated   = errors.New("mrt: truncated record")
	ErrUnsupported = errors.New("mrt: unsupported record type")
)

// afiIPv4 is the only address family this pipeline carries.
const afiIPv4 = 1

// Writer emits MRT records to an io.Writer.
type Writer struct {
	w   io.Writer
	buf []byte
}

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Write serializes one record.
func (w *Writer) Write(rec Record) error {
	w.buf = w.buf[:0]
	var typ, sub uint16
	switch r := rec.(type) {
	case *PeerIndexTable:
		typ, sub = TypeTableDumpV2, SubtypePeerIndexTable
		w.buf = appendPeerIndexTable(w.buf, r)
	case *RIBPrefix:
		typ, sub = TypeTableDumpV2, SubtypeRIBIPv4Unicast
		var err error
		w.buf, err = appendRIBPrefix(w.buf, r)
		if err != nil {
			return err
		}
	case *BGP4MPMessage:
		typ, sub = TypeBGP4MP, SubtypeBGP4MPMessageAS4
		var err error
		w.buf, err = appendBGP4MP(w.buf, r)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("%w: %T", ErrUnsupported, rec)
	}

	var hdr [12]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(rec.Timestamp().Unix()))
	binary.BigEndian.PutUint16(hdr[4:], typ)
	binary.BigEndian.PutUint16(hdr[6:], sub)
	binary.BigEndian.PutUint32(hdr[8:], uint32(len(w.buf)))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.w.Write(w.buf)
	return err
}

func appendPeerIndexTable(b []byte, p *PeerIndexTable) []byte {
	b = be32a(b, uint32(p.CollectorID))
	b = be16a(b, uint16(len(p.ViewName)))
	b = append(b, p.ViewName...)
	b = be16a(b, uint16(len(p.Peers)))
	for _, peer := range p.Peers {
		// Peer type: bit 0 = IPv6 addr (never set here), bit 1 = 4-byte AS.
		b = append(b, 0x02)
		b = be32a(b, uint32(peer.BGPID))
		b = be32a(b, uint32(peer.Addr))
		b = be32a(b, uint32(peer.AS))
	}
	return b
}

func appendRIBPrefix(b []byte, r *RIBPrefix) ([]byte, error) {
	b = be32a(b, r.Sequence)
	b = append(b, byte(r.Prefix.Bits()))
	n := (r.Prefix.Bits() + 7) / 8
	a := uint32(r.Prefix.Addr())
	for i := 0; i < n; i++ {
		b = append(b, byte(a>>(24-8*uint(i))))
	}
	b = be16a(b, uint16(len(r.Entries)))
	for _, e := range r.Entries {
		b = be16a(b, e.PeerIndex)
		b = be32a(b, uint32(e.OriginatedTime.Unix()))
		attrs := bgp.EncodeAttrs(&e.Attrs)
		if len(attrs) > 0xFFFF {
			return nil, fmt.Errorf("mrt: attribute block %d bytes too large", len(attrs))
		}
		b = be16a(b, uint16(len(attrs)))
		b = append(b, attrs...)
	}
	return b, nil
}

func appendBGP4MP(b []byte, m *BGP4MPMessage) ([]byte, error) {
	b = be32a(b, uint32(m.PeerAS))
	b = be32a(b, uint32(m.LocalAS))
	b = be16a(b, m.Interface)
	b = be16a(b, afiIPv4)
	b = be32a(b, uint32(m.PeerAddr))
	b = be32a(b, uint32(m.LocalAddr))
	msg, err := bgp.EncodeUpdate(m.Update)
	if err != nil {
		return nil, err
	}
	return append(b, msg...), nil
}

func be16a(b []byte, v uint16) []byte { return append(b, byte(v>>8), byte(v)) }
func be32a(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// maxRecord caps a single record body so a lying length field cannot
// force an arbitrary allocation.
const maxRecord = 1 << 24

// Reader streams MRT records from an io.Reader.
type Reader struct {
	r   io.Reader
	buf []byte

	off int64 // absolute offset of the next unread byte
	rec int   // index of the next record to be attempted

	// pending holds a header pre-read during resynchronization; Next
	// consumes it before reading fresh bytes.
	pending    [12]byte
	hasPending bool

	// scan is the chunked resynchronization buffer; leftover holds
	// bytes fetched during a resync chunk but not yet consumed by the
	// parser (they alias leftoverArr and are drained by readFull).
	scan        []byte
	leftover    []byte
	leftoverArr [resyncChunk]byte
	// hdrArr is the header read target. A local array would escape
	// through the io.Reader interface and cost one heap allocation per
	// record; a Reader field does not.
	hdrArr [12]byte

	lenient bool
	skipped int
	src     *ingest.Source

	reuse   bool
	scratch *decodeScratch
}

// decodeScratch bundles the record structs and slice storage a reusing
// Reader decodes into. Pooling the bundle lets short-lived Readers
// (one per collector file) inherit warmed-up entry, path-segment, and
// prefix slices instead of regrowing them from nothing.
type decodeScratch struct {
	pit PeerIndexTable
	rp  RIBPrefix
	b4  BGP4MPMessage
	upd bgp.Update
}

var scratchPool = sync.Pool{New: func() any { return new(decodeScratch) }}

// Option configures a Reader.
type Option func(*Reader)

// Lenient switches the Reader to fault-tolerant mode: corrupt,
// truncated, and unsupported records are counted and skipped — scanning
// forward for the next plausible record header when the framing itself
// is damaged — instead of aborting the stream.
func Lenient() Option { return func(r *Reader) { r.lenient = true } }

// WithSource attaches an ingest health accumulator: every accepted
// record and every classified skip is counted into src.
func WithSource(src *ingest.Source) Option { return func(r *Reader) { r.src = src } }

// ReuseRecords switches the Reader to pooled decode mode: Next returns
// records backed by Reader-owned scratch storage drawn from a
// sync.Pool, so steady-state decoding allocates nothing. Each record
// (and everything it references — peer lists, RIB entries, attributes,
// AS paths, prefixes) is valid only until the following Next call;
// callers must copy or intern whatever they keep. Call Release when
// done to return the scratch to the pool. Do not combine with ReadAll,
// which retains every record.
func ReuseRecords() Option { return func(r *Reader) { r.reuse = true } }

// Release returns a reusing Reader's scratch storage to the shared
// pool. After Release, records previously returned by Next must no
// longer be used. Release is a no-op on a strict-allocation Reader.
func (r *Reader) Release() {
	if r.scratch != nil {
		scratchPool.Put(r.scratch)
		r.scratch = nil
	}
}

func (r *Reader) getScratch() *decodeScratch {
	if r.scratch == nil {
		r.scratch = scratchPool.Get().(*decodeScratch)
	}
	return r.scratch
}

// NewReader returns a Reader consuming r. With no options the Reader is
// strict: the first malformed record fails with an error carrying the
// record index and byte offset.
func NewReader(r io.Reader, opts ...Option) *Reader {
	rd := &Reader{r: r}
	for _, o := range opts {
		o(rd)
	}
	return rd
}

// Skipped returns how many records the Reader has skipped so far (always
// 0 in strict mode, where the first bad record aborts instead).
func (r *Reader) Skipped() int { return r.skipped }

// recordError is a classified per-record failure. It carries the record
// index and starting byte offset, wraps the underlying cause (so
// errors.Is sees ErrTruncated / ErrUnsupported), and tells the lenient
// loop how to recover.
type recordError struct {
	Record int
	Offset int64
	Reason ingest.Reason
	resync bool     // framing untrustworthy: scan forward for the next header
	atEOF  bool     // stream exhausted mid-record: nothing left to recover
	hdr    [12]byte // the implausible header, seeding the resync scan
	err    error
}

func (e *recordError) Error() string {
	return fmt.Sprintf("mrt: record %d at offset %#x: %v", e.Record, e.Offset, e.err)
}

func (e *recordError) Unwrap() error { return e.err }

// Next returns the next record, or io.EOF at the end of the stream.
//
// In strict mode any malformed record aborts with a *recordError-backed
// error naming the record index and byte offset; errors.Is with
// ErrTruncated and ErrUnsupported keeps working through the wrapping. In
// lenient mode Next skips past damage — classifying each skip, scanning
// byte-wise for the next plausible header when the framing lied — and
// only ever returns a record or io.EOF: a lenient read ends at EOF. The
// skip budget is the caller's (rib.Build quarantines a collector past
// it).
func (r *Reader) Next() (Record, error) {
	for {
		rec, err := r.next()
		if err == nil {
			if r.src != nil {
				r.src.Accept(1)
			}
			return rec, nil
		}
		if err == io.EOF {
			return nil, io.EOF
		}
		re := err.(*recordError)
		if !r.lenient {
			return nil, re
		}
		r.skipped++
		if r.src != nil {
			r.src.Skip(re.Reason)
		}
		if re.atEOF {
			return nil, io.EOF
		}
		if re.resync && !r.resync(re.hdr) {
			return nil, io.EOF
		}
	}
}

// readHeader returns the next record's starting offset and 12-byte
// header, consuming a pending resync header first. A clean end of stream
// is io.EOF; a partial header is a truncated-at-EOF record error.
func (r *Reader) readHeader() (int64, [12]byte, error) {
	if r.hasPending {
		r.hasPending = false
		return r.off - 12, r.pending, nil
	}
	start := r.off
	n, err := r.readFull(r.hdrArr[:])
	hdr := r.hdrArr
	r.off += int64(n)
	if err == io.EOF {
		return start, hdr, io.EOF
	}
	if err != nil {
		return start, hdr, &recordError{
			Record: r.rec, Offset: start, Reason: ingest.Truncated, atEOF: true,
			err: fmt.Errorf("%w: header: %v", ErrTruncated, err),
		}
	}
	return start, hdr, nil
}

// next decodes one record. Its only non-nil errors are io.EOF and
// *recordError.
func (r *Reader) next() (Record, error) {
	start, hdr, err := r.readHeader()
	if err != nil {
		return nil, err
	}
	idx := r.rec
	r.rec++
	ts := time.Unix(int64(binary.BigEndian.Uint32(hdr[0:])), 0).UTC()
	typ := binary.BigEndian.Uint16(hdr[4:])
	sub := binary.BigEndian.Uint16(hdr[6:])
	length := binary.BigEndian.Uint32(hdr[8:])
	if length > maxRecord {
		return nil, &recordError{
			Record: idx, Offset: start, Reason: ingest.Corrupt, resync: true, hdr: hdr,
			err: fmt.Errorf("record length %d exceeds cap", length),
		}
	}
	if cap(r.buf) < int(length) {
		// Grow-and-reuse: doubling (capped at the record bound) means a
		// stream of slightly-growing records settles on one buffer
		// instead of reallocating per record.
		grow := 2 * cap(r.buf)
		if grow < int(length) {
			grow = int(length)
		}
		if grow > maxRecord {
			grow = maxRecord
		}
		r.buf = make([]byte, grow)
	}
	body := r.buf[:length]
	n, err := r.readFull(body)
	r.off += int64(n)
	if err != nil {
		return nil, &recordError{
			Record: idx, Offset: start, Reason: ingest.Truncated, atEOF: true,
			err: fmt.Errorf("%w: body: %v", ErrTruncated, err),
		}
	}

	// Each decoder returns a concrete pointer; convert to the Record
	// interface only on success so a failed decode yields an untyped nil.
	// Decode failures leave the stream at the next record boundary (the
	// body was fully consumed), so the lenient loop continues in place.
	var rec Record
	switch {
	case typ == TypeTableDumpV2 && sub == SubtypePeerIndexTable:
		if r.reuse {
			s := r.getScratch()
			if err = decodePeerIndexTableInto(ts, body, &s.pit, true); err == nil {
				rec = &s.pit
			}
		} else {
			rec, err = convert(decodePeerIndexTable(ts, body))
		}
	case typ == TypeTableDumpV2 && sub == SubtypeRIBIPv4Unicast:
		if r.reuse {
			s := r.getScratch()
			if err = decodeRIBPrefixInto(ts, body, &s.rp, true); err == nil {
				rec = &s.rp
			}
		} else {
			rec, err = convert(decodeRIBPrefix(ts, body))
		}
	case typ == TypeBGP4MP && sub == SubtypeBGP4MPMessageAS4:
		if r.reuse {
			s := r.getScratch()
			if err = decodeBGP4MPInto(ts, body, &s.b4, &s.upd); err == nil {
				rec = &s.b4
			}
		} else {
			rec, err = convert(decodeBGP4MP(ts, body))
		}
	default:
		return nil, &recordError{
			Record: idx, Offset: start, Reason: ingest.Unsupported,
			err: fmt.Errorf("%w: type %d subtype %d", ErrUnsupported, typ, sub),
		}
	}
	if err != nil {
		reason := ingest.Corrupt
		if errors.Is(err, ErrTruncated) {
			reason = ingest.Truncated
		}
		return nil, &recordError{Record: idx, Offset: start, Reason: reason, err: err}
	}
	return rec, nil
}

// convert narrows a concrete decode result to the Record interface
// without producing a typed-nil Record on error.
func convert[T Record](rec T, err error) (Record, error) {
	if err != nil {
		return nil, err
	}
	return rec, nil
}

// knownTypeSubtypes are the (type, subtype) pairs this package decodes —
// the resynchronization scan only locks onto one of these.
var knownTypeSubtypes = map[[2]uint16]bool{
	{TypeTableDumpV2, SubtypePeerIndexTable}: true,
	{TypeTableDumpV2, SubtypeRIBIPv4Unicast}: true,
	{TypeBGP4MP, SubtypeBGP4MPMessageAS4}:    true,
}

// Timestamp sanity bounds for resynchronization only: RouteViews started
// publishing MRT in the late 1990s, so anything outside [1990, 2100) in
// the timestamp field is treated as garbage when hunting for a header.
const (
	resyncMinUnix = 631152000  // 1990-01-01
	resyncMaxUnix = 4102444800 // 2100-01-01
)

// plausibleHeader reports whether hdr could start a real record: a
// decodable (type, subtype), an in-cap length, and a sane timestamp.
func plausibleHeader(hdr [12]byte) bool {
	ts := binary.BigEndian.Uint32(hdr[0:])
	typ := binary.BigEndian.Uint16(hdr[4:])
	sub := binary.BigEndian.Uint16(hdr[6:])
	length := binary.BigEndian.Uint32(hdr[8:])
	return knownTypeSubtypes[[2]uint16{typ, sub}] &&
		length <= maxRecord &&
		ts >= resyncMinUnix && ts < resyncMaxUnix
}

// resyncChunk is how many bytes a resync scan fetches per underlying
// Read call, and bounds the leftover carried between scans.
const resyncChunk = 512

// readFull fills p, draining bytes fetched-but-unconsumed by a resync
// scan before touching the underlying reader. Like io.ReadFull it
// returns io.EOF only when no byte of p was read.
func (r *Reader) readFull(p []byte) (int, error) {
	n := 0
	if len(r.leftover) > 0 {
		c := copy(p, r.leftover)
		r.leftover = r.leftover[c:]
		n += c
		if n == len(p) {
			return n, nil
		}
	}
	m, err := io.ReadFull(r.r, p[n:])
	if err == io.EOF && n > 0 {
		// p began with leftover bytes, so a clean underlying EOF is
		// still a truncated read of p.
		err = io.ErrUnexpectedEOF
	}
	return n + m, err
}

// resync slides a 12-byte window — seeded with the implausible header's
// own bytes, so the scan effectively restarts one byte past the failed
// record's start — until the window holds a plausible record header,
// which it leaves pending for the next read. It reports false when the
// stream ends first. The seed header is never plausible (that is what
// triggered the resync), so each call consumes at least one byte and a
// lenient Reader always terminates.
//
// The scan reads the stream in reused resyncChunk-sized chunks rather
// than byte-at-a-time; bytes fetched past the recovered header are
// parked in r.leftover for readFull to drain, so nothing is lost and
// nothing is reallocated however long the damage runs.
func (r *Reader) resync(window [12]byte) bool {
	if r.scan == nil {
		r.scan = make([]byte, resyncChunk)
	}
	for {
		var chunk []byte
		if len(r.leftover) > 0 {
			// A previous resync over-read and the record it recovered
			// failed too; scan those fetched bytes first.
			chunk = r.leftover
			r.leftover = nil
		} else {
			n, err := r.r.Read(r.scan)
			if n == 0 {
				if err == nil {
					continue
				}
				return false
			}
			chunk = r.scan[:n]
		}
		for i := 0; i < len(chunk); i++ {
			r.off++
			copy(window[:], window[1:])
			window[11] = chunk[i]
			if plausibleHeader(window) {
				r.pending = window
				r.hasPending = true
				// Park the unscanned remainder (possibly aliasing
				// leftoverArr already; copy is overlap-safe).
				rest := chunk[i+1:]
				r.leftover = r.leftoverArr[:copy(r.leftoverArr[:], rest)]
				return true
			}
		}
	}
}

func decodePeerIndexTable(ts time.Time, b []byte) (*PeerIndexTable, error) {
	p := &PeerIndexTable{}
	if err := decodePeerIndexTableInto(ts, b, p, false); err != nil {
		return nil, err
	}
	return p, nil
}

// decodePeerIndexTableInto decodes into p. With reuse set, p's peer
// slice capacity is recycled in place.
func decodePeerIndexTableInto(ts time.Time, b []byte, p *PeerIndexTable, reuse bool) error {
	if len(b) < 8 {
		return ErrTruncated
	}
	peers := p.Peers[:0]
	if !reuse {
		peers = nil
	}
	*p = PeerIndexTable{When: ts, CollectorID: netx.Addr(binary.BigEndian.Uint32(b))}
	nameLen := int(binary.BigEndian.Uint16(b[4:]))
	if len(b) < 8+nameLen {
		return ErrTruncated
	}
	p.ViewName = string(b[6 : 6+nameLen])
	count := int(binary.BigEndian.Uint16(b[6+nameLen:]))
	b = b[8+nameLen:]
	for i := 0; i < count; i++ {
		if len(b) < 1 {
			return ErrTruncated
		}
		ptype := b[0]
		if ptype&0x01 != 0 {
			return fmt.Errorf("mrt: IPv6 peers unsupported")
		}
		asLen := 2
		if ptype&0x02 != 0 {
			asLen = 4
		}
		need := 1 + 4 + 4 + asLen
		if len(b) < need {
			return ErrTruncated
		}
		peer := Peer{
			BGPID: netx.Addr(binary.BigEndian.Uint32(b[1:])),
			Addr:  netx.Addr(binary.BigEndian.Uint32(b[5:])),
		}
		if asLen == 4 {
			peer.AS = bgp.ASN(binary.BigEndian.Uint32(b[9:]))
		} else {
			peer.AS = bgp.ASN(binary.BigEndian.Uint16(b[9:]))
		}
		peers = append(peers, peer)
		b = b[need:]
	}
	if len(b) != 0 {
		return fmt.Errorf("mrt: %d trailing bytes in peer index table", len(b))
	}
	p.Peers = peers
	return nil
}

func decodeRIBPrefix(ts time.Time, b []byte) (*RIBPrefix, error) {
	r := &RIBPrefix{}
	if err := decodeRIBPrefixInto(ts, b, r, false); err != nil {
		return nil, err
	}
	return r, nil
}

// decodeRIBPrefixInto decodes into r. With reuse set, r's entry slice
// is recycled slot by slot: each incoming entry re-decodes into the
// attribute storage (path segments, ASN slices, communities) parked in
// its slot by the previous record.
func decodeRIBPrefixInto(ts time.Time, b []byte, r *RIBPrefix, reuse bool) error {
	if len(b) < 5 {
		return ErrTruncated
	}
	entries := r.Entries[:0]
	if !reuse {
		entries = nil
	}
	*r = RIBPrefix{When: ts, Sequence: binary.BigEndian.Uint32(b)}
	bits := int(b[4])
	if bits > 32 {
		return fmt.Errorf("mrt: prefix length %d", bits)
	}
	n := (bits + 7) / 8
	if len(b) < 5+n+2 {
		return ErrTruncated
	}
	var a uint32
	for i := 0; i < n; i++ {
		a |= uint32(b[5+i]) << (24 - 8*uint(i))
	}
	r.Prefix = netx.PrefixFrom(netx.Addr(a), bits)
	count := int(binary.BigEndian.Uint16(b[5+n:]))
	b = b[7+n:]
	for i := 0; i < count; i++ {
		if len(b) < 8 {
			return ErrTruncated
		}
		var e RIBEntry
		if k := len(entries); k < cap(entries) {
			e = entries[:k+1][k] // recycle the slot's attribute storage
		}
		e.PeerIndex = binary.BigEndian.Uint16(b)
		e.OriginatedTime = time.Unix(int64(binary.BigEndian.Uint32(b[2:])), 0).UTC()
		attrLen := int(binary.BigEndian.Uint16(b[6:]))
		if len(b) < 8+attrLen {
			return ErrTruncated
		}
		var err error
		if reuse {
			err = bgp.DecodeAttrsReuse(b[8:8+attrLen], &e.Attrs)
		} else {
			e.Attrs = bgp.Attrs{}
			err = bgp.DecodeAttrs(b[8:8+attrLen], &e.Attrs)
		}
		if err != nil {
			return err
		}
		entries = append(entries, e)
		b = b[8+attrLen:]
	}
	if len(b) != 0 {
		return fmt.Errorf("mrt: %d trailing bytes in RIB record", len(b))
	}
	r.Entries = entries
	return nil
}

func decodeBGP4MP(ts time.Time, b []byte) (*BGP4MPMessage, error) {
	m := &BGP4MPMessage{}
	if err := decodeBGP4MPInto(ts, b, m, nil); err != nil {
		return nil, err
	}
	return m, nil
}

// decodeBGP4MPInto decodes into m. A non-nil upd enables reuse mode:
// the UPDATE decodes into upd, recycling its slice storage.
func decodeBGP4MPInto(ts time.Time, b []byte, m *BGP4MPMessage, upd *bgp.Update) error {
	if len(b) < 20 {
		return ErrTruncated
	}
	afi := binary.BigEndian.Uint16(b[10:])
	if afi != afiIPv4 {
		return fmt.Errorf("mrt: AFI %d unsupported", afi)
	}
	*m = BGP4MPMessage{
		When:      ts,
		PeerAS:    bgp.ASN(binary.BigEndian.Uint32(b)),
		LocalAS:   bgp.ASN(binary.BigEndian.Uint32(b[4:])),
		Interface: binary.BigEndian.Uint16(b[8:]),
		PeerAddr:  netx.Addr(binary.BigEndian.Uint32(b[12:])),
		LocalAddr: netx.Addr(binary.BigEndian.Uint32(b[16:])),
	}
	if upd != nil {
		if err := bgp.DecodeUpdateInto(b[20:], upd); err != nil {
			return err
		}
		m.Update = upd
		return nil
	}
	u, err := bgp.DecodeUpdate(b[20:])
	if err != nil {
		return err
	}
	m.Update = u
	return nil
}

// ReadAll drains r, returning every record decoded before the stream
// ended. Its contract is partial-result: on error the returned slice
// still holds every record successfully parsed up to that point, so a
// caller hitting a truncated archive keeps the good prefix — check the
// slice even when err != nil. Options are forwarded to the underlying
// Reader; with Lenient() there is no error — the read ends at EOF.
// Because the records are retained, do not pass ReuseRecords here.
func ReadAll(r io.Reader, opts ...Option) ([]Record, error) {
	var dst []Record
	mr := NewReader(r, opts...)
	for {
		rec, err := mr.Next()
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
		dst = append(dst, rec)
	}
}
