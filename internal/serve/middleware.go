package serve

import (
	"context"
	"net/http"
	"time"
)

// Middleware is the robustness layer wrapped around a Server: drain
// gating, admission control, panic isolation, and per-request
// deadlines. The point-query path through it stays allocation-free
// (TestPointHandlerAllocs runs with the middleware installed); only
// queued, shed, slow-endpoint, and failure paths pay extra.
//
// Layering, outermost first:
//
//  1. panic recovery — a panicking handler answers 500 and increments
//     the panics counter. The generation refcount is released by the
//     Server's own deferred Release during unwind, before recovery
//     runs, so a panic can never wedge a retired generation's munmap.
//  2. drain — once StartDrain is called, every new request (including
//     /healthz, so load balancers eject the instance) answers 503
//     while requests already admitted run to completion.
//  3. admission — bounded inflight plus a short bounded wait queue;
//     past both, the request is shed with 503 + Retry-After.
//     /healthz and /metrics bypass the gate: overload must never make
//     the daemon unobservable.
//  4. deadline — the allocating endpoints (origins, figures) run under
//     a context deadline and a per-request connection write deadline.
//     The point queries are CPU-bound and microsecond-scale by
//     construction (0 allocs/op, no I/O, no locks beyond the refcount),
//     so their latency bound is the admission queue wait plus the
//     server's global WriteTimeout; arming a context for them would
//     cost allocations for a deadline that cannot bind.
type Middleware struct {
	srv      *Server
	gate     *Gate
	stats    *Stats
	timeout  time.Duration
	draining chan struct{} // closed by StartDrain
}

// requestTimeout bounds the allocating endpoints' handlers via context
// and connection write deadline.
const requestTimeout = 5 * time.Second

// retryAfter is the Retry-After hint, in seconds, sent with every 503.
const retryAfter = "1"

// MiddlewareConfig parameterizes Wrap: the admission gate's bounds.
type MiddlewareConfig struct {
	Gate GateConfig

	// timeout overrides requestTimeout; the deadline tests shorten it.
	timeout time.Duration
}

// Wrap installs the robustness middleware over srv, sharing its Stats.
func Wrap(srv *Server, cfg MiddlewareConfig) *Middleware {
	if cfg.timeout <= 0 {
		cfg.timeout = requestTimeout
	}
	return &Middleware{
		srv:      srv,
		gate:     NewGate(cfg.Gate, srv.stats),
		stats:    srv.stats,
		timeout:  cfg.timeout,
		draining: make(chan struct{}),
	}
}

// StartDrain flips the middleware into drain mode: every subsequent
// request answers 503 while already-admitted requests finish. Safe to
// call more than once.
func (m *Middleware) StartDrain() {
	select {
	case <-m.draining:
	default:
		close(m.draining)
	}
}

// Draining reports whether StartDrain has been called.
func (m *Middleware) Draining() bool {
	select {
	case <-m.draining:
		return true
	default:
		return false
	}
}

var (
	shedBody  = []byte("{\"error\":\"overloaded\"}\n")
	drainBody = []byte("{\"error\":\"draining\"}\n")
	panicBody = []byte("{\"error\":\"internal error\"}\n")
)

// ServeHTTP runs one request through drain, admission, deadline, and
// the query server, with panic recovery around all of it.
func (m *Middleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if p := recover(); p != nil {
			// The panicking handler's deferred refcount Release already
			// ran during unwind; all that is left is accounting and the
			// client's 500. A partially written response cannot be
			// rewritten — the handlers buffer and write once, so in
			// practice nothing has been sent.
			m.stats.Panics.Add(1)
			h := w.Header()
			setHeader(h, "Content-Type", jsonContentType)
			w.WriteHeader(http.StatusInternalServerError)
			w.Write(panicBody)
		}
	}()
	if m.Draining() {
		m.reject(w, drainBody)
		return
	}
	path := r.URL.Path
	if path == "/healthz" || path == "/metrics" {
		m.srv.ServeHTTP(w, r)
		return
	}
	if !m.gate.Enter(r.Context()) {
		m.reject(w, shedBody)
		return
	}
	defer m.gate.Leave()
	if slowEndpoint(path) {
		// Belt and braces: a context deadline the handler can consult,
		// and a connection write deadline so even a handler that never
		// looks at the context cannot hold the connection past the
		// timeout. Both allocate; slow endpoints already do.
		rc := http.NewResponseController(w)
		_ = rc.SetWriteDeadline(time.Now().Add(m.timeout))
		ctx, cancel := context.WithTimeout(r.Context(), m.timeout)
		defer cancel()
		r = r.WithContext(ctx)
	}
	m.srv.ServeHTTP(w, r)
}

// reject sheds one request with 503 + Retry-After. Kept cheap on
// purpose: under overload the shed path is the hot path.
func (m *Middleware) reject(w http.ResponseWriter, body []byte) {
	m.stats.Shed.Add(1)
	h := w.Header()
	setHeader(h, "Content-Type", jsonContentType)
	setHeader(h, "Retry-After", retryAfter)
	w.WriteHeader(http.StatusServiceUnavailable)
	w.Write(body)
}

// slowEndpoint reports whether the path may run allocating,
// non-constant-time work and therefore runs under a request deadline.
func slowEndpoint(path string) bool {
	switch path {
	case "/v1/visibility", "/v1/rov", "/v1/drop":
		return false
	}
	return true
}
