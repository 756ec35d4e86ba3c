package serve

import (
	"net/http"
	"strconv"
	"strings"

	"dropscope/internal/bgp"
	"dropscope/internal/netx"
	"dropscope/internal/timex"
)

// reqState is the pooled per-request scratch: the response body under
// construction and a small buffer percent-decoded query values land in.
// One reqState serves one request at a time; the pool recycles them so
// steady-state point queries allocate nothing.
type reqState struct {
	body    []byte
	scratch [64]byte
}

// params is the decoded point-query parameter set. bad names the first
// malformed parameter ("" when the query parsed).
type params struct {
	prefix    netx.Prefix
	hasPrefix bool
	day       timex.Day
	hasDay    bool
	origin    bgp.ASN
	hasOrigin bool
	as0       bool
	bad       string
}

// parseParams scans a raw query string without allocating: values are
// percent-decoded into st.scratch and parsed to values in place.
// Unknown keys are ignored.
func parseParams(raw string, st *reqState) params {
	var q params
	for len(raw) > 0 {
		var kv string
		if i := strings.IndexByte(raw, '&'); i >= 0 {
			kv, raw = raw[:i], raw[i+1:]
		} else {
			kv, raw = raw, ""
		}
		eq := strings.IndexByte(kv, '=')
		if eq < 0 {
			continue
		}
		k, v := kv[:eq], kv[eq+1:]
		val, ok := unescape(st.scratch[:0], v)
		if !ok {
			q.bad = k
			return q
		}
		var err error
		switch k {
		case "prefix":
			q.prefix, err = netx.ParsePrefixBytes(val)
			q.hasPrefix = err == nil
		case "day":
			q.day, err = timex.ParseDayBytes(val)
			q.hasDay = err == nil
		case "origin":
			q.origin, err = bgp.ParseASNBytes(val)
			q.hasOrigin = err == nil
		case "as0":
			q.as0, ok = parseBoolBytes(val)
		default:
			continue
		}
		if err != nil || !ok {
			q.bad = k
			return q
		}
	}
	return q
}

// unescape percent-decodes s into dst ('+' decodes to space). It
// reports false on a malformed or over-long escape sequence.
func unescape(dst []byte, s string) ([]byte, bool) {
	for i := 0; i < len(s); i++ {
		if len(dst) == cap(dst) {
			return nil, false
		}
		switch c := s[i]; c {
		case '%':
			if i+2 >= len(s) {
				return nil, false
			}
			hi, ok1 := unhex(s[i+1])
			lo, ok2 := unhex(s[i+2])
			if !ok1 || !ok2 {
				return nil, false
			}
			dst = append(dst, hi<<4|lo)
			i += 2
		case '+':
			dst = append(dst, ' ')
		default:
			dst = append(dst, c)
		}
	}
	return dst, true
}

func unhex(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

func parseBoolBytes(b []byte) (bool, bool) {
	switch string(b) { // compiler-recognized: no allocation in a switch
	case "1", "true":
		return true, true
	case "0", "false", "":
		return false, true
	}
	return false, false
}

// appendPrefix renders p as "a.b.c.d/len".
func appendPrefix(b []byte, p netx.Prefix) []byte {
	o1, o2, o3, o4 := p.Addr().Octets()
	b = strconv.AppendUint(b, uint64(o1), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(o2), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(o3), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(o4), 10)
	b = append(b, '/')
	return strconv.AppendUint(b, uint64(p.Bits()), 10)
}

// appendDay renders d as "YYYY-MM-DD" (years 1000-9999, the study's
// working range).
func appendDay(b []byte, d timex.Day) []byte {
	y, m, dd := d.Date()
	return append(b,
		byte('0'+y/1000%10), byte('0'+y/100%10), byte('0'+y/10%10), byte('0'+y%10), '-',
		byte('0'+int(m)/10), byte('0'+int(m)%10), '-',
		byte('0'+dd/10), byte('0'+dd%10))
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, "true"...)
	}
	return append(b, "false"...)
}

func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// setHeader sets a single-valued header without allocating when the
// header was set on this map before: http.Header.Set always allocates a
// fresh one-element slice, so we mutate the existing slice in place. The
// first set on a fresh map still allocates; a pooled or reused
// ResponseWriter (and the steady-state alloc guarantee) relies on the
// in-place path.
func setHeader(h http.Header, k, v string) {
	if vs, ok := h[k]; ok && len(vs) == 1 {
		vs[0] = v
		return
	}
	h[k] = []string{v}
}
