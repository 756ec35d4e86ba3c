package serve

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dropscope/internal/analysis"
	"dropscope/internal/timex"
)

// Endpoint indices for the per-endpoint request counters.
const (
	epVisibility = iota
	epROV
	epDrop
	epOrigins
	epFigures
	epHealthz
	epMetrics
	numEndpoints
)

var epNames = [numEndpoints]string{
	"visibility", "rov", "drop", "origins", "figures", "healthz", "metrics",
}

const jsonContentType = "application/json"

// generationHeader carries the serving generation's archive digest on
// every response, so clients can always tell which archive state
// answered them — and notice when a swap landed between two requests.
const generationHeader = "X-Dropscope-Generation"

// Server answers the study's point queries over HTTP from the current
// Generation. The generation pointer is swapped atomically (Swap); each
// request pins the generation it loads via the snapshot refcount, so a
// swap never tears an in-flight query and the retired mapping unmaps
// only after its last reader releases.
//
// The steady-state point-query handlers (visibility, rov, drop) are
// allocation-free: request parsing, the queries themselves, and response
// encoding all run on pooled buffers. (net/http's own connection
// plumbing still allocates; the guarantee covers everything from
// ServeHTTP down, as enforced by TestPointHandlerAllocs.)
type Server struct {
	gen   atomic.Pointer[Generation]
	swaps atomic.Uint64
	errs  atomic.Uint64
	reqs  [numEndpoints]atomic.Uint64
	pool  sync.Pool
	stats *Stats

	// testHook, when set (tests only), runs after the generation is
	// pinned and before routing — the injection point for deliberate
	// panics and stalls in the chaos and deadline suites.
	testHook func(*http.Request)
}

// New builds a server over an initial generation (nil is allowed; every
// request answers 503 until the first Swap).
func New(g *Generation) *Server {
	s := &Server{stats: &Stats{}}
	s.pool.New = func() any {
		return &reqState{body: make([]byte, 0, 4096)}
	}
	if g != nil {
		s.gen.Store(g)
		s.stats.markGeneration(time.Now())
	}
	return s
}

// Stats returns the server's resilience accounting, shared with the
// middleware and reload supervisor.
func (s *Server) Stats() *Stats { return s.stats }

// Generation returns the currently published generation (nil before the
// first one is installed).
func (s *Server) Generation() *Generation { return s.gen.Load() }

// Swaps returns how many generation swaps the server has performed.
func (s *Server) Swaps() uint64 { return s.swaps.Load() }

// Swap atomically publishes next and retires the previous generation:
// new requests land on next immediately, requests already pinned to the
// old generation finish against it, and the old mapping is unmapped by
// whichever of Close/last-Release runs last. The retired generation is
// returned (nil on the first install).
func (s *Server) Swap(next *Generation) *Generation {
	old := s.gen.Swap(next)
	s.swaps.Add(1)
	s.stats.markGeneration(time.Now())
	// Any scrub finding was about the generation just retired; the new
	// one starts clean (and gets its own pass).
	s.stats.SetScrubError("")
	if old != nil {
		old.snap.Close()
	}
	return old
}

// acquire loads the current generation and pins it. A pin can lose the
// race with a concurrent Swap (the loaded generation closed before
// Acquire); the retry then observes the freshly published pointer.
func (s *Server) acquire() *Generation {
	for i := 0; i < 64; i++ {
		g := s.gen.Load()
		if g == nil {
			return nil
		}
		if g.Acquire() == nil {
			return g
		}
	}
	return nil
}

// ServeHTTP routes the query endpoints. Every handler runs with the
// generation pinned for the whole request.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		s.fail(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	g := s.acquire()
	if g == nil {
		s.fail(w, http.StatusServiceUnavailable, "no generation loaded")
		return
	}
	defer g.Release()
	if h := s.testHook; h != nil {
		h(r)
	}
	path := r.URL.Path
	switch {
	case path == "/v1/visibility":
		s.reqs[epVisibility].Add(1)
		s.handleVisibility(w, r, g)
	case path == "/v1/rov":
		s.reqs[epROV].Add(1)
		s.handleROV(w, r, g)
	case path == "/v1/drop":
		s.reqs[epDrop].Add(1)
		s.handleDrop(w, r, g)
	case path == "/v1/origins":
		s.reqs[epOrigins].Add(1)
		s.handleOrigins(w, r, g)
	case strings.HasPrefix(path, "/v1/figures/"):
		s.reqs[epFigures].Add(1)
		s.handleFigures(w, g, path[len("/v1/figures/"):])
	case path == "/healthz":
		s.reqs[epHealthz].Add(1)
		s.handleHealthz(w, g)
	case path == "/metrics":
		s.reqs[epMetrics].Add(1)
		s.handleMetrics(w, g)
	default:
		s.fail(w, http.StatusNotFound, "unknown endpoint")
	}
}

// fail emits a JSON error. Error paths are off the steady state and may
// allocate.
func (s *Server) fail(w http.ResponseWriter, code int, msg string) {
	s.errs.Add(1)
	h := w.Header()
	h.Set("Content-Type", jsonContentType)
	w.WriteHeader(code)
	body, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{msg})
	w.Write(append(body, '\n'))
}

func (s *Server) finish(w http.ResponseWriter, g *Generation, b []byte) {
	h := w.Header()
	setHeader(h, "Content-Type", jsonContentType)
	setHeader(h, generationHeader, g.digestHex)
	w.Write(b)
}

// appendGeneration closes a response object with the generation digest:
// `,"generation":"<hex>"}` plus newline.
func (g *Generation) appendGeneration(b []byte) []byte {
	b = append(b, `,"generation":"`...)
	b = append(b, g.digestHex...)
	return append(b, '"', '}', '\n')
}

// handleVisibility answers GET /v1/visibility?prefix=P[&day=D]: the
// exact-route peer visibility of P on D (default: the window's last
// day). Zero-alloc steady state.
func (s *Server) handleVisibility(w http.ResponseWriter, r *http.Request, g *Generation) {
	st := s.pool.Get().(*reqState)
	defer s.pool.Put(st)
	q := parseParams(r.URL.RawQuery, st)
	if q.bad != "" {
		s.fail(w, http.StatusBadRequest, "bad parameter: "+q.bad)
		return
	}
	if !q.hasPrefix {
		s.fail(w, http.StatusBadRequest, "prefix parameter required")
		return
	}
	d := q.day
	if !q.hasDay {
		d = g.window.Last
	}
	visible, peers := g.Visibility(q.prefix, d)
	frac := 0.0
	if peers > 0 {
		frac = float64(visible) / float64(peers)
	}
	b := st.body[:0]
	b = append(b, `{"prefix":"`...)
	b = appendPrefix(b, q.prefix)
	b = append(b, `","day":"`...)
	b = appendDay(b, d)
	b = append(b, `","peers_visible":`...)
	b = strconv.AppendInt(b, int64(visible), 10)
	b = append(b, `,"peers_total":`...)
	b = strconv.AppendInt(b, int64(peers), 10)
	b = append(b, `,"visible_fraction":`...)
	b = appendFloat(b, frac)
	b = append(b, `,"observed":`...)
	b = appendBool(b, visible > 0)
	b = g.appendGeneration(b)
	st.body = b[:0]
	s.finish(w, g, b)
}

// handleROV answers GET /v1/rov?prefix=P[&origin=AS][&day=D][&as0=1]:
// the RFC 6811 outcome for (P, origin) against the ROAs live on D under
// the default production TALs (as0=1 adds the informational AS0 TALs).
// With no origin given, the plurality observed origin on D is used —
// that derivation allocates; the explicit-origin path is zero-alloc.
func (s *Server) handleROV(w http.ResponseWriter, r *http.Request, g *Generation) {
	st := s.pool.Get().(*reqState)
	defer s.pool.Put(st)
	q := parseParams(r.URL.RawQuery, st)
	if q.bad != "" {
		s.fail(w, http.StatusBadRequest, "bad parameter: "+q.bad)
		return
	}
	if !q.hasPrefix {
		s.fail(w, http.StatusBadRequest, "prefix parameter required")
		return
	}
	d := q.day
	if !q.hasDay {
		d = g.window.Last
	}
	origin := q.origin
	if !q.hasOrigin {
		var ok bool
		origin, ok = g.pipe.Index.OriginAt(q.prefix, d)
		if !ok {
			s.fail(w, http.StatusNotFound, "prefix not observed on day; pass origin explicitly")
			return
		}
	}
	v := g.ROV(q.prefix, origin, d, q.as0)
	b := st.body[:0]
	b = append(b, `{"prefix":"`...)
	b = appendPrefix(b, q.prefix)
	b = append(b, `","day":"`...)
	b = appendDay(b, d)
	b = append(b, `","origin":`...)
	b = strconv.AppendUint(b, uint64(origin), 10)
	b = append(b, `,"validity":"`...)
	b = append(b, v.String()...)
	b = append(b, `","as0_tals":`...)
	b = appendBool(b, q.as0)
	b = g.appendGeneration(b)
	st.body = b[:0]
	s.finish(w, g, b)
}

// handleDrop answers GET /v1/drop?prefix=P[&day=D]: whether P was on
// the DROP list effective on D. Zero-alloc steady state.
func (s *Server) handleDrop(w http.ResponseWriter, r *http.Request, g *Generation) {
	st := s.pool.Get().(*reqState)
	defer s.pool.Put(st)
	q := parseParams(r.URL.RawQuery, st)
	if q.bad != "" {
		s.fail(w, http.StatusBadRequest, "bad parameter: "+q.bad)
		return
	}
	if !q.hasPrefix {
		s.fail(w, http.StatusBadRequest, "prefix parameter required")
		return
	}
	d := q.day
	if !q.hasDay {
		d = g.window.Last
	}
	b := st.body[:0]
	b = append(b, `{"prefix":"`...)
	b = appendPrefix(b, q.prefix)
	b = append(b, `","day":"`...)
	b = appendDay(b, d)
	b = append(b, `","listed":`...)
	b = appendBool(b, g.DropListed(q.prefix, d))
	b = g.appendGeneration(b)
	st.body = b[:0]
	s.finish(w, g, b)
}

// handleOrigins answers GET /v1/origins?prefix=P: the merged
// origination timeline of P across all peers. The timeline query makes
// one allocation (the returned spans, sorted and merged in place); the
// response is built on the pooled buffer.
func (s *Server) handleOrigins(w http.ResponseWriter, r *http.Request, g *Generation) {
	st := s.pool.Get().(*reqState)
	defer s.pool.Put(st)
	q := parseParams(r.URL.RawQuery, st)
	if q.bad != "" {
		s.fail(w, http.StatusBadRequest, "bad parameter: "+q.bad)
		return
	}
	if !q.hasPrefix {
		s.fail(w, http.StatusBadRequest, "prefix parameter required")
		return
	}
	spans := g.pipe.Index.OriginTimeline(q.prefix)
	b := st.body[:0]
	b = append(b, `{"prefix":"`...)
	b = appendPrefix(b, q.prefix)
	b = append(b, `","spans":[`...)
	for i, sp := range spans {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"from":"`...)
		b = appendDay(b, sp.From)
		b = append(b, `","to":"`...)
		b = appendDay(b, sp.To)
		b = append(b, `","origin":`...)
		b = strconv.AppendUint(b, uint64(sp.Origin), 10)
		b = append(b, `,"transit":`...)
		b = strconv.AppendUint(b, uint64(sp.Transit), 10)
		b = append(b, '}')
	}
	b = append(b, ']')
	b = g.appendGeneration(b)
	st.body = b[:0]
	s.finish(w, g, b)
}

// handleFigures answers GET /v1/figures/{day}: the per-day study cut
// (routed space, MOAS conflicts, DROP pressure, live ROAs). The first
// request for a day computes and encodes it; every later one writes the
// generation's stored bytes.
func (s *Server) handleFigures(w http.ResponseWriter, g *Generation, daypath string) {
	d, err := timex.ParseDay(daypath)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "bad day in path; want /v1/figures/YYYY-MM-DD")
		return
	}
	if !g.window.Contains(d) {
		s.fail(w, http.StatusNotFound, "day outside the study window")
		return
	}
	s.finish(w, g, g.figuresBody(d))
}

// appendFigures encodes f as the body of a /v1/figures response, up to
// the generation suffix.
func appendFigures(b []byte, f analysis.DayFigures) []byte {
	b = append(b, `{"day":"`...)
	b = appendDay(b, f.Day)
	b = append(b, `","routed_addrs":`...)
	b = strconv.AppendUint(b, f.RoutedAddrs, 10)
	b = append(b, `,"routed_slash8":`...)
	b = appendFloat(b, f.RoutedSlash8)
	b = append(b, `,"moas_conflicts":`...)
	b = strconv.AppendInt(b, int64(f.MOASConflicts), 10)
	b = append(b, `,"drop_listed":`...)
	b = strconv.AppendInt(b, int64(f.DROPListed), 10)
	b = append(b, `,"drop_listed_addrs":`...)
	b = strconv.AppendUint(b, f.DROPListedAddrs, 10)
	b = append(b, `,"roas_live":`...)
	return strconv.AppendInt(b, int64(f.ROAsLive), 10)
}

// handleHealthz reports liveness plus the serving generation and its
// shape — the digest here is what the swap acceptance checks watch.
// Degraded mode (reloads to the next generation failing while this one
// keeps serving) is surfaced here, still with status 200: stale but
// available is healthy by the daemon's availability contract, and a
// load balancer must not eject an instance for it.
func (s *Server) handleHealthz(w http.ResponseWriter, g *Generation) {
	st := s.pool.Get().(*reqState)
	defer s.pool.Put(st)
	degraded := s.stats.Degraded.Load()
	b := st.body[:0]
	if degraded {
		b = append(b, `{"status":"degraded"`...)
	} else {
		b = append(b, `{"status":"ok"`...)
	}
	b = append(b, `,"degraded":`...)
	b = appendBool(b, degraded)
	b = append(b, `,"window_first":"`...)
	b = appendDay(b, g.window.First)
	b = append(b, `","window_last":"`...)
	b = appendDay(b, g.window.Last)
	b = append(b, `","prefixes":`...)
	b = strconv.AppendInt(b, int64(g.pipe.Index.NumPrefixes()), 10)
	b = append(b, `,"peers":`...)
	b = strconv.AppendInt(b, int64(g.pipe.Index.NumPeers()), 10)
	if ss := g.shards; ss != nil {
		// Per-shard state: a scrub finding degrades one prefix range, and
		// this is where an operator sees which one.
		b = append(b, `,"shards":`...)
		b = strconv.AppendInt(b, int64(ss.NumShards()), 10)
		b = append(b, `,"resident_shards":`...)
		b = strconv.AppendInt(b, int64(ss.Resident()), 10)
		b = append(b, `,"shard_resident":[`...)
		for i, r := range ss.ResidentShards() {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendBool(b, r)
		}
		b = append(b, `],"shard_degraded":[`...)
		for i, bad := range ss.BadShards() {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendBool(b, bad)
		}
		b = append(b, ']')
	}
	b = append(b, `,"swaps":`...)
	b = strconv.AppendUint(b, s.swaps.Load(), 10)
	b = append(b, `,"generation_age_seconds":`...)
	b = appendFloat(b, s.stats.GenerationAge(time.Now()).Seconds())
	if msg := s.stats.ReloadError(); degraded && msg != "" {
		b = append(b, `,"reload_error":`...)
		quoted, _ := json.Marshal(msg)
		b = append(b, quoted...)
	}
	if msg := s.stats.ScrubError(); msg != "" {
		b = append(b, `,"scrub_error":`...)
		quoted, _ := json.Marshal(msg)
		b = append(b, quoted...)
	}
	b = g.appendGeneration(b)
	st.body = b[:0]
	s.finish(w, g, b)
}

// handleMetrics reports the per-endpoint request counters and the
// ingest health accounting of the serving generation.
func (s *Server) handleMetrics(w http.ResponseWriter, g *Generation) {
	st := s.pool.Get().(*reqState)
	defer s.pool.Put(st)
	var total uint64
	b := st.body[:0]
	b = append(b, `{"requests":{`...)
	for i := 0; i < numEndpoints; i++ {
		n := s.reqs[i].Load()
		total += n
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, epNames[i]...)
		b = append(b, `":`...)
		b = strconv.AppendUint(b, n, 10)
	}
	b = append(b, `},"requests_total":`...)
	b = strconv.AppendUint(b, total, 10)
	b = append(b, `,"errors":`...)
	b = strconv.AppendUint(b, s.errs.Load(), 10)
	b = append(b, `,"swaps":`...)
	b = strconv.AppendUint(b, s.swaps.Load(), 10)
	b = append(b, `,"inflight":`...)
	b = strconv.AppendInt(b, s.stats.Inflight.Load(), 10)
	b = append(b, `,"queued":`...)
	b = strconv.AppendInt(b, s.stats.Queued.Load(), 10)
	b = append(b, `,"shed_total":`...)
	b = strconv.AppendUint(b, s.stats.Shed.Load(), 10)
	b = append(b, `,"panics_total":`...)
	b = strconv.AppendUint(b, s.stats.Panics.Load(), 10)
	b = append(b, `,"reload_retries":`...)
	b = strconv.AppendUint(b, s.stats.ReloadRetries.Load(), 10)
	b = append(b, `,"delta_reloads_total":`...)
	b = strconv.AppendUint(b, s.stats.DeltaReloads.Load(), 10)
	b = append(b, `,"scrub_passes":`...)
	b = strconv.AppendUint(b, s.stats.ScrubPasses.Load(), 10)
	b = append(b, `,"scrub_bytes":`...)
	b = strconv.AppendUint(b, s.stats.ScrubBytes.Load(), 10)
	b = append(b, `,"corrupt_total":`...)
	b = strconv.AppendUint(b, s.stats.CorruptTotal.Load(), 10)
	// Shard residency: all zero for a generation built in memory, so the
	// metric schema is the same whatever serves the index.
	b = append(b, `,"shards":`...)
	if ss := g.shards; ss != nil {
		b = strconv.AppendInt(b, int64(ss.NumShards()), 10)
		b = append(b, `,"resident_shards":`...)
		b = strconv.AppendInt(b, int64(ss.Resident()), 10)
		b = append(b, `,"shard_faults_total":`...)
		b = strconv.AppendInt(b, ss.Faults(), 10)
		b = append(b, `,"shard_evictions_total":`...)
		b = strconv.AppendInt(b, ss.Evictions(), 10)
	} else {
		b = append(b, `0,"resident_shards":0,"shard_faults_total":0,"shard_evictions_total":0`...)
	}
	b = append(b, `,"degraded":`...)
	if s.stats.Degraded.Load() {
		b = append(b, '1')
	} else {
		b = append(b, '0')
	}
	b = append(b, `,"generation_age_seconds":`...)
	b = appendFloat(b, s.stats.GenerationAge(time.Now()).Seconds())
	b = append(b, `,"ingest":`...)
	b = append(b, g.ingestJSON()...)
	b = g.appendGeneration(b)
	st.body = b[:0]
	s.finish(w, g, b)
}
