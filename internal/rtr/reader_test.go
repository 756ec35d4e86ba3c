package rtr

import (
	"fmt"
	"io"
	"slices"

	"dropscope/internal/bgp"
	"dropscope/internal/netx"
	"dropscope/internal/rpki"
)

// reader is the router side of one RTR session, as far as the server
// tests need it: it sends Reset and Serial Queries and applies the
// cache's answers to its VRP set, so a test reads what a router would
// hold after each exchange.
type reader struct {
	conn      io.ReadWriter
	sessionID uint16
	serial    uint32
	vrps      []VRP
	intervals Intervals // from the last End Of Data
}

// reset sends a Reset Query and collects the full VRP set.
func (r *reader) reset() error {
	if err := WritePDU(r.conn, &ResetQuery{}); err != nil {
		return err
	}
	r.vrps = r.vrps[:0]
	return r.collect(false)
}

// poll sends a Serial Query at the reader's serial and applies the
// delta. A Cache Reset answer falls back to a full reset.
func (r *reader) poll() error {
	if err := WritePDU(r.conn, &SerialQuery{SessionID: r.sessionID, Serial: r.serial}); err != nil {
		return err
	}
	return r.collect(true)
}

// collect reads one answer: Cache Response, the prefix PDUs, End Of
// Data.
func (r *reader) collect(polled bool) error {
	pdu, err := ReadPDU(r.conn)
	if err != nil {
		return err
	}
	if _, ok := pdu.(*CacheReset); ok && polled {
		return r.reset()
	}
	cr, ok := pdu.(*CacheResponse)
	if !ok {
		return fmt.Errorf("rtr: expected cache response, got %T", pdu)
	}
	r.sessionID = cr.SessionID
	for {
		pdu, err := ReadPDU(r.conn)
		if err != nil {
			return err
		}
		switch p := pdu.(type) {
		case *IPv4Prefix:
			if p.Announce {
				r.vrps = append(r.vrps, p.VRP)
			} else {
				r.vrps = slices.DeleteFunc(r.vrps, func(v VRP) bool { return v == p.VRP })
			}
		case *EndOfData:
			r.serial = p.Serial
			r.intervals = Intervals{Refresh: p.Refresh, Retry: p.Retry, Expire: p.Expire}
			return nil
		default:
			return fmt.Errorf("rtr: unexpected %T in data stream", pdu)
		}
	}
}

// validate runs RFC 6811 origin validation of (p, origin) against a
// synced VRP set, as the router holding it would.
func validate(vrps []VRP, p netx.Prefix, origin bgp.ASN) rpki.Validity {
	roas := make([]rpki.ROA, len(vrps))
	for i, v := range vrps {
		roas[i] = rpki.ROA{Prefix: v.Prefix, MaxLength: v.MaxLength, ASN: v.ASN}
	}
	return rpki.Validate(p, origin, roas)
}
