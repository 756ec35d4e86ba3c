// Package rtr implements the RPKI-to-Router protocol (RFC 8210, version
// 1) for IPv4 prefixes: the PDU wire format, a Server that feeds
// validated ROA payloads (VRPs) from an rpki.Archive snapshot to routers
// (cmd/rtrd serves an archive day with it). This is the deployment
// mechanism for the route origin validation the paper evaluates —
// operators run exactly this protocol between validator and router.
package rtr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"dropscope/internal/bgp"
	"dropscope/internal/netx"
)

// Protocol version implemented (RFC 8210).
const Version = 1

// PDU type codes.
const (
	TypeSerialNotify  = 0
	TypeSerialQuery   = 1
	TypeResetQuery    = 2
	TypeCacheResponse = 3
	TypeIPv4Prefix    = 4
	TypeEndOfData     = 7
	TypeCacheReset    = 8
	TypeErrorReport   = 10
)

// Error codes from RFC 8210 §12.
const (
	ErrCorruptData        = 0
	ErrInternalError      = 1
	ErrNoDataAvailable    = 2
	ErrInvalidRequest     = 3
	ErrUnsupportedVersion = 4
	ErrUnsupportedPDUType = 5
)

// VRP is a validated ROA payload: the (prefix, maxLength, ASN) triple a
// router uses for origin validation.
type VRP struct {
	Prefix    netx.Prefix
	MaxLength int
	ASN       bgp.ASN
}

// Announce/withdraw flag in the IPv4 Prefix PDU.
const (
	flagWithdraw = 0
	flagAnnounce = 1
)

// PDU is any protocol data unit.
type PDU interface {
	write(w io.Writer) error
	pduType() byte
}

// SerialNotify tells the router new data is available.
type SerialNotify struct {
	SessionID uint16
	Serial    uint32
}

// SerialQuery asks for the delta since Serial.
type SerialQuery struct {
	SessionID uint16
	Serial    uint32
}

// ResetQuery asks for the complete data set.
type ResetQuery struct{}

// CacheResponse opens a data stream.
type CacheResponse struct {
	SessionID uint16
}

// IPv4Prefix carries one VRP announce or withdraw.
type IPv4Prefix struct {
	Announce bool
	VRP      VRP
}

// EndOfData closes a data stream.
type EndOfData struct {
	SessionID uint16
	Serial    uint32
	// Refresh/Retry/Expire intervals in seconds (RFC 8210 §5.8).
	Refresh, Retry, Expire uint32
}

// CacheReset tells the router to fall back to a reset query.
type CacheReset struct{}

// ErrorReport carries a protocol error.
type ErrorReport struct {
	Code uint16
	Text string
}

func (p *SerialNotify) pduType() byte  { return TypeSerialNotify }
func (p *SerialQuery) pduType() byte   { return TypeSerialQuery }
func (p *ResetQuery) pduType() byte    { return TypeResetQuery }
func (p *CacheResponse) pduType() byte { return TypeCacheResponse }
func (p *IPv4Prefix) pduType() byte    { return TypeIPv4Prefix }
func (p *EndOfData) pduType() byte     { return TypeEndOfData }
func (p *CacheReset) pduType() byte    { return TypeCacheReset }
func (p *ErrorReport) pduType() byte   { return TypeErrorReport }

// header writes the 8-byte common PDU header.
func header(w io.Writer, typ byte, sessionOrZero uint16, length uint32) error {
	var h [8]byte
	h[0] = Version
	h[1] = typ
	binary.BigEndian.PutUint16(h[2:], sessionOrZero)
	binary.BigEndian.PutUint32(h[4:], length)
	_, err := w.Write(h[:])
	return err
}

func (p *SerialNotify) write(w io.Writer) error {
	if err := header(w, TypeSerialNotify, p.SessionID, 12); err != nil {
		return err
	}
	return writeU32(w, p.Serial)
}

func (p *SerialQuery) write(w io.Writer) error {
	if err := header(w, TypeSerialQuery, p.SessionID, 12); err != nil {
		return err
	}
	return writeU32(w, p.Serial)
}

func (p *ResetQuery) write(w io.Writer) error {
	return header(w, TypeResetQuery, 0, 8)
}

func (p *CacheResponse) write(w io.Writer) error {
	return header(w, TypeCacheResponse, p.SessionID, 8)
}

func (p *IPv4Prefix) write(w io.Writer) error {
	if err := header(w, TypeIPv4Prefix, 0, 20); err != nil {
		return err
	}
	var b [12]byte
	if p.Announce {
		b[0] = flagAnnounce
	}
	b[1] = byte(p.VRP.Prefix.Bits())
	b[2] = byte(p.VRP.MaxLength)
	binary.BigEndian.PutUint32(b[4:], uint32(p.VRP.Prefix.Addr()))
	binary.BigEndian.PutUint32(b[8:], uint32(p.VRP.ASN))
	_, err := w.Write(b[:])
	return err
}

func (p *EndOfData) write(w io.Writer) error {
	if err := header(w, TypeEndOfData, p.SessionID, 24); err != nil {
		return err
	}
	for _, v := range []uint32{p.Serial, p.Refresh, p.Retry, p.Expire} {
		if err := writeU32(w, v); err != nil {
			return err
		}
	}
	return nil
}

func (p *CacheReset) write(w io.Writer) error {
	return header(w, TypeCacheReset, 0, 8)
}

func (p *ErrorReport) write(w io.Writer) error {
	// Error Report: 4-byte encapsulated-PDU length (0), then 4-byte text
	// length and the text.
	total := uint32(8 + 4 + 4 + len(p.Text))
	if err := header(w, TypeErrorReport, p.Code, total); err != nil {
		return err
	}
	if err := writeU32(w, 0); err != nil {
		return err
	}
	if err := writeU32(w, uint32(len(p.Text))); err != nil {
		return err
	}
	_, err := io.WriteString(w, p.Text)
	return err
}

func writeU32(w io.Writer, v uint32) error {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	_, err := w.Write(b[:])
	return err
}

// WritePDU serializes one PDU.
func WritePDU(w io.Writer, p PDU) error { return p.write(w) }

// Decode errors.
var (
	ErrTruncated  = errors.New("rtr: truncated PDU")
	ErrBadVersion = errors.New("rtr: unsupported protocol version")
)

// ReadPDU reads and decodes one PDU.
func ReadPDU(r io.Reader) (PDU, error) {
	var h [8]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: header: %v", ErrTruncated, err)
	}
	if h[0] != Version {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, h[0])
	}
	typ := h[1]
	session := binary.BigEndian.Uint16(h[2:])
	length := binary.BigEndian.Uint32(h[4:])
	if length < 8 || length > 1<<16 {
		return nil, fmt.Errorf("rtr: implausible PDU length %d", length)
	}
	body := make([]byte, length-8)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("%w: body: %v", ErrTruncated, err)
	}

	switch typ {
	case TypeSerialNotify, TypeSerialQuery:
		if len(body) != 4 {
			return nil, fmt.Errorf("rtr: serial PDU length %d", len(body))
		}
		serial := binary.BigEndian.Uint32(body)
		if typ == TypeSerialNotify {
			return &SerialNotify{SessionID: session, Serial: serial}, nil
		}
		return &SerialQuery{SessionID: session, Serial: serial}, nil
	case TypeResetQuery:
		return &ResetQuery{}, nil
	case TypeCacheResponse:
		return &CacheResponse{SessionID: session}, nil
	case TypeIPv4Prefix:
		if len(body) != 12 {
			return nil, fmt.Errorf("rtr: ipv4 prefix PDU length %d", len(body))
		}
		bits, maxLen := int(body[1]), int(body[2])
		if bits > 32 || maxLen > 32 || maxLen < bits {
			return nil, fmt.Errorf("rtr: bad prefix lengths %d/%d", bits, maxLen)
		}
		addr := netx.Addr(binary.BigEndian.Uint32(body[4:]))
		p := netx.PrefixFrom(addr, bits)
		if p.Addr() != addr {
			return nil, fmt.Errorf("rtr: prefix %s has host bits", p)
		}
		return &IPv4Prefix{
			Announce: body[0]&flagAnnounce != 0,
			VRP: VRP{
				Prefix:    p,
				MaxLength: maxLen,
				ASN:       bgp.ASN(binary.BigEndian.Uint32(body[8:])),
			},
		}, nil
	case TypeEndOfData:
		if len(body) != 16 {
			return nil, fmt.Errorf("rtr: end of data PDU length %d", len(body))
		}
		return &EndOfData{
			SessionID: session,
			Serial:    binary.BigEndian.Uint32(body),
			Refresh:   binary.BigEndian.Uint32(body[4:]),
			Retry:     binary.BigEndian.Uint32(body[8:]),
			Expire:    binary.BigEndian.Uint32(body[12:]),
		}, nil
	case TypeCacheReset:
		return &CacheReset{}, nil
	case TypeErrorReport:
		if len(body) < 8 {
			return nil, fmt.Errorf("rtr: error report PDU length %d", len(body))
		}
		// All length arithmetic in uint64 to rule out 32-bit wraparound on
		// adversarial values.
		encLen := uint64(binary.BigEndian.Uint32(body))
		if 4+encLen+4 > uint64(len(body)) {
			return nil, fmt.Errorf("rtr: error report lengths inconsistent")
		}
		txtOff := 4 + encLen
		txtLen := uint64(binary.BigEndian.Uint32(body[txtOff:]))
		if txtOff+4+txtLen > uint64(len(body)) {
			return nil, fmt.Errorf("rtr: error report text overruns")
		}
		return &ErrorReport{
			Code: session,
			Text: string(body[txtOff+4 : txtOff+4+txtLen]),
		}, nil
	default:
		return nil, fmt.Errorf("rtr: unsupported PDU type %d", typ)
	}
}
