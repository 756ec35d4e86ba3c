package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dropscope/internal/ribsnap"
)

// mwServer builds a middleware-wrapped server over the shared read-only
// generation with a tiny admission gate, for the shed-path tests.
func mwServer(t *testing.T, cfg MiddlewareConfig) (*Middleware, *Generation) {
	t.Helper()
	g := loadGen(t)
	return Wrap(New(g), cfg), g
}

// getMW drives one request through the middleware.
func getMW(m *Middleware, path string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	m.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
	return w
}

// TestAdmissionShed pins the shed contract: with the single inflight
// slot held and no queue, the next request answers 503 with a
// Retry-After hint and a JSON error body, and the shed counter moves.
// /healthz and /metrics bypass the gate — overload must never make the
// daemon unobservable.
func TestAdmissionShed(t *testing.T) {
	m, g := mwServer(t, MiddlewareConfig{Gate: GateConfig{MaxInflight: 1, maxQueue: -1}})
	day := g.window.Last.String()
	point := "/v1/visibility?prefix=" + escapePrefix(samples(g)[0]) + "&day=" + day

	// Hold the only slot from a blocked request.
	entered := make(chan struct{})
	release := make(chan struct{})
	m.srv.testHook = func(r *http.Request) {
		if r.URL.Path == "/v1/hold" {
			close(entered)
			<-release
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		getMW(m, "/v1/hold") // 404 after the hold, immaterial
	}()
	<-entered

	w := getMW(m, point)
	if w.Code != 503 {
		t.Fatalf("saturated gate: status %d, want 503", w.Code)
	}
	if got := w.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After %q, want %q", got, "1")
	}
	var er struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Error != "overloaded" {
		t.Fatalf("shed body %q", w.Body.String())
	}
	if m.stats.Shed.Load() != 1 {
		t.Fatalf("shed counter %d, want 1", m.stats.Shed.Load())
	}
	// Observability endpoints bypass the gate even when it is saturated.
	for _, p := range []string{"/healthz", "/metrics"} {
		if w := getMW(m, p); w.Code != 200 {
			t.Fatalf("%s through saturated gate: status %d", p, w.Code)
		}
	}
	close(release)
	wg.Wait()

	// The slot is free again: the same point query is admitted.
	if w := getMW(m, point); w.Code != 200 {
		t.Fatalf("after release: status %d: %s", w.Code, w.Body.String())
	}
	if got := m.stats.Inflight.Load(); got != 0 {
		t.Fatalf("inflight %d after drain, want 0", got)
	}
}

// TestAdmissionQueueAdmits pins the queue path: a request that arrives
// while the gate is full waits (briefly) and is admitted when the slot
// frees within the queue wait.
func TestAdmissionQueueAdmits(t *testing.T) {
	m, g := mwServer(t, MiddlewareConfig{
		Gate: GateConfig{MaxInflight: 1, maxQueue: 1, wait: 5 * time.Second},
	})
	point := "/v1/drop?prefix=" + escapePrefix(samples(g)[1]) + "&day=" + g.window.Last.String()

	entered := make(chan struct{})
	release := make(chan struct{})
	m.srv.testHook = func(r *http.Request) {
		if r.URL.Path == "/v1/hold" {
			close(entered)
			<-release
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		getMW(m, "/v1/hold")
	}()
	<-entered

	queued := make(chan *httptest.ResponseRecorder, 1)
	go func() { queued <- getMW(m, point) }()
	// Wait until the second request is actually parked in the queue,
	// then free the slot; it must be admitted, not shed.
	deadline := time.Now().Add(5 * time.Second)
	for m.stats.Queued.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	w := <-queued
	wg.Wait()
	if w.Code != 200 {
		t.Fatalf("queued request: status %d, want 200: %s", w.Code, w.Body.String())
	}
	if m.stats.Shed.Load() != 0 {
		t.Fatalf("shed %d, want 0", m.stats.Shed.Load())
	}
	if m.stats.Queued.Load() != 0 {
		t.Fatalf("queued gauge %d after drain, want 0", m.stats.Queued.Load())
	}
}

// overloadBurst offers n copies of one point query to a fresh middleware
// behind gate, open loop: request i is due at start + i*every whether or
// not earlier ones have finished, so a backlog can form. Service time
// comes from the server's test hook, which runs inside the gate. It
// returns the latency of every admitted (200) reply, measured from the
// request's due time, the number of well-formed shed replies (503 with
// Retry-After and the overloaded body), and the middleware for its
// stats; any other reply is a test error.
func overloadBurst(t *testing.T, gate GateConfig, service time.Duration, n int, every time.Duration) (m *Middleware, admitted []time.Duration, shed uint64) {
	t.Helper()
	m, g := mwServer(t, MiddlewareConfig{Gate: gate})
	m.srv.testHook = func(*http.Request) { time.Sleep(service) }
	point := "/v1/visibility?prefix=" + escapePrefix(samples(g)[0]) + "&day=" + g.window.Last.String()

	codes := make([]int, n)
	lats := make([]time.Duration, n)
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			due := start.Add(time.Duration(i) * every)
			time.Sleep(time.Until(due))
			w := getMW(m, point)
			lats[i] = time.Since(due)
			codes[i] = w.Code
			if w.Code == 503 && (w.Header().Get("Retry-After") == "" || !strings.Contains(w.Body.String(), `"overloaded"`)) {
				t.Errorf("request %d: malformed shed reply: %v %q", i, w.Header(), w.Body.String())
			}
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		switch code {
		case 200:
			admitted = append(admitted, lats[i])
		case 503:
			shed++
		default:
			t.Errorf("request %d: status %d, want 200 or 503", i, code)
		}
	}
	sort.Slice(admitted, func(i, j int) bool { return admitted[i] < admitted[j] })
	return m, admitted, shed
}

// TestAdmissionOverloadBurst is the overload contract end to end: offered
// four times what the gate can serve, the daemon sheds the excess with
// 503s and the requests it does admit stay fast. Four slots and a 5 ms
// service time make capacity 800/s; 1600 requests arrive at 3200/s.
// The admitted p99 must stay within 10x (queue wait + service). The
// control arm runs the same burst against a gate that queues everything
// and never gives up on a wait: its p99 is the backlog (~1.5 s) and must
// exceed that same bound, which shows, on the machine the test runs on,
// that the bound separates a gate that sheds from one that does not.
func TestAdmissionOverloadBurst(t *testing.T) {
	const (
		slots     = 4
		service   = 5 * time.Millisecond
		queueWait = 10 * time.Millisecond
		n         = 1600
		every     = service / (4 * slots) // 4x capacity
		bound     = 10 * (queueWait + service)
	)
	p99 := func(sorted []time.Duration) time.Duration { return sorted[len(sorted)*99/100] }

	// Both ways the gate sheds are held to the contract: a queue as
	// short as the slots sheds at the queue bound (waits never reach
	// queueWait), a queue that takes the whole burst sheds only when a
	// wait expires.
	for _, maxQueue := range []int{slots, n} {
		m, admitted, shed := overloadBurst(t, GateConfig{MaxInflight: slots, maxQueue: maxQueue, wait: queueWait}, service, n, every)
		if shed == 0 || len(admitted) == 0 {
			t.Fatalf("queue %d: admitted %d, shed %d of %d: want both non-zero at 4x capacity", maxQueue, len(admitted), shed, n)
		}
		t.Logf("queue %d: admitted %d, shed %d, admitted p99 %v (bound %v)", maxQueue, len(admitted), shed, p99(admitted), bound)
		if got := m.stats.Shed.Load(); got != shed {
			t.Errorf("queue %d: shed counter %d, clients saw %d 503s", maxQueue, got, shed)
		}
		if got := p99(admitted); got > bound {
			t.Errorf("queue %d: admitted p99 %v under overload, want <= %v", maxQueue, got, bound)
		}
		if in, q := m.stats.Inflight.Load(), m.stats.Queued.Load(); in != 0 || q != 0 {
			t.Errorf("queue %d: after the burst inflight %d queued %d, want 0/0", maxQueue, in, q)
		}
	}

	_, admitted, shed := overloadBurst(t, GateConfig{MaxInflight: slots, maxQueue: n, wait: time.Minute}, service, n, every)
	if shed != 0 || len(admitted) != n {
		t.Fatalf("control gate: admitted %d, shed %d, want all %d admitted", len(admitted), shed, n)
	}
	t.Logf("control gate: admitted %d, p99 %v", len(admitted), p99(admitted))
	if got := p99(admitted); got <= bound {
		t.Errorf("control gate that never sheds: p99 %v <= %v; the bound cannot tell shedding from queueing on this machine", got, bound)
	}
}

// TestDrainRejectsNewArrivals pins the shutdown contract: once
// StartDrain is called every new request — the query endpoints and
// /healthz alike, so load balancers eject the instance — answers 503,
// while a request already admitted runs to completion.
func TestDrainRejectsNewArrivals(t *testing.T) {
	m, g := mwServer(t, MiddlewareConfig{})
	point := "/v1/visibility?prefix=" + escapePrefix(samples(g)[2]) + "&day=" + g.window.First.String()

	entered := make(chan struct{})
	release := make(chan struct{})
	m.srv.testHook = func(r *http.Request) {
		if r.URL.Path == point2URLPath(point) {
			select {
			case <-entered:
			default:
				close(entered)
				<-release
			}
		}
	}
	inflight := make(chan *httptest.ResponseRecorder, 1)
	go func() { inflight <- getMW(m, point) }()
	<-entered

	if m.Draining() {
		t.Fatal("draining before StartDrain")
	}
	m.StartDrain()
	m.StartDrain() // idempotent
	if !m.Draining() {
		t.Fatal("not draining after StartDrain")
	}
	for _, p := range []string{point, "/healthz", "/metrics"} {
		w := getMW(m, p)
		if w.Code != 503 {
			t.Fatalf("%s during drain: status %d, want 503", p, w.Code)
		}
		if !strings.Contains(w.Body.String(), "draining") {
			t.Fatalf("%s drain body %q", p, w.Body.String())
		}
	}
	// The admitted request still completes normally.
	close(release)
	if w := <-inflight; w.Code != 200 {
		t.Fatalf("in-flight request during drain: status %d: %s", w.Code, w.Body.String())
	}
}

// point2URLPath strips the query from a test path.
func point2URLPath(p string) string {
	if i := strings.IndexByte(p, '?'); i >= 0 {
		return p[:i]
	}
	return p
}

// TestPanicReleasesGeneration is the panic-isolation acceptance test: a
// handler that panics answers 500 (not a killed connection), increments
// the panics counter, and — the part that matters for the swap protocol
// — still releases its generation pin during unwind. After swapping the
// panicked-on generation out, it must drain to refcount zero and refuse
// new Acquires with ribsnap.ErrClosed; a leaked pin would wedge the
// retired mapping forever.
func TestPanicReleasesGeneration(t *testing.T) {
	dirA, dirB, window := swapWorlds(t)
	first := loadDir(t, dirA, window)
	s := New(first)
	m := Wrap(s, MiddlewareConfig{})
	s.testHook = func(r *http.Request) {
		if r.URL.Path == "/v1/panic" {
			panic("deliberate test panic")
		}
	}

	const panics = 5
	for i := 0; i < panics; i++ {
		w := getMW(m, "/v1/panic")
		if w.Code != 500 {
			t.Fatalf("panicking request: status %d, want 500", w.Code)
		}
		var er struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Error == "" {
			t.Fatalf("panic body %q not a JSON error", w.Body.String())
		}
	}
	if got := m.stats.Panics.Load(); got != panics {
		t.Fatalf("panics counter %d, want %d", got, panics)
	}

	// Retire the generation the panicking requests ran on. Their pins
	// were released during unwind, so it drains immediately.
	retired := s.Swap(loadDir(t, dirB, window))
	if retired != first {
		t.Fatal("swap retired the wrong generation")
	}
	if refs := retired.snap.Refs(); refs != 0 {
		t.Fatalf("retired generation holds %d refs after panics, want 0", refs)
	}
	if err := retired.Acquire(); !errors.Is(err, ribsnap.ErrClosed) {
		t.Fatalf("retired Acquire = %v, want ErrClosed", err)
	}
	// And the server still works.
	g := s.Generation()
	point := "/v1/drop?prefix=" + escapePrefix(samples(g)[0]) + "&day=" + window.Last.String()
	if w := getMW(m, point); w.Code != 200 {
		t.Fatalf("post-panic request: status %d", w.Code)
	}
}

// TestRequestDeadlines pins which endpoints run under a context
// deadline: the allocating endpoints (origins, figures) do, the
// zero-alloc point queries do not (their bound is the admission queue
// wait plus the server's WriteTimeout, and arming a context would cost
// allocations). A stalled slow handler is cut when the deadline fires.
func TestRequestDeadlines(t *testing.T) {
	m, g := mwServer(t, MiddlewareConfig{timeout: 100 * time.Millisecond})
	var mu sync.Mutex
	deadlines := map[string]bool{}
	m.srv.testHook = func(r *http.Request) {
		_, has := r.Context().Deadline()
		mu.Lock()
		deadlines[r.URL.Path] = has
		mu.Unlock()
		if r.URL.Path == "/v1/stall" {
			// A handler that hangs: only the armed deadline frees it.
			<-r.Context().Done()
		}
	}
	day := g.window.Last.String()
	getMW(m, "/v1/visibility?prefix="+escapePrefix(samples(g)[0])+"&day="+day)
	getMW(m, "/v1/origins?prefix="+escapePrefix(samples(g)[0]))
	getMW(m, "/v1/figures/"+day)

	mu.Lock()
	if deadlines["/v1/visibility"] {
		t.Error("point query ran under a context deadline; that path must stay allocation-free")
	}
	if !deadlines["/v1/origins"] || !deadlines["/v1/figures/"+day] {
		t.Errorf("slow endpoints missing deadlines: %+v", deadlines)
	}
	mu.Unlock()

	t0 := time.Now()
	getMW(m, "/v1/stall")
	if elapsed := time.Since(t0); elapsed > 3*time.Second {
		t.Fatalf("stalled handler ran %v; deadline never fired", elapsed)
	}
}

// TestMetricsExportsResilienceCounters pins the /metrics additions:
// inflight, queued, shed_total, panics_total, reload_retries, degraded
// and generation age, each reported once — at top level, never again as
// a source of the ingest report.
func TestMetricsExportsResilienceCounters(t *testing.T) {
	m, g := mwServer(t, MiddlewareConfig{Gate: GateConfig{MaxInflight: 1, maxQueue: -1}})
	s := m.srv

	// Manufacture one shed and one panic, then flip degraded state.
	entered := make(chan struct{})
	release := make(chan struct{})
	s.testHook = func(r *http.Request) {
		switch r.URL.Path {
		case "/v1/hold":
			close(entered)
			<-release
		case "/v1/panic":
			panic("metric panic")
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); getMW(m, "/v1/hold") }()
	<-entered
	getMW(m, "/v1/visibility?prefix="+escapePrefix(samples(g)[0])) // shed
	close(release)
	wg.Wait()
	getMW(m, "/v1/panic")
	s.stats.ReloadRetries.Add(2)
	s.stats.Degraded.Store(true)
	s.stats.SetReloadError("archive on fire")

	w := getMW(m, "/metrics")
	if w.Code != 200 {
		t.Fatalf("metrics status %d", w.Code)
	}
	var mr struct {
		Inflight      int64   `json:"inflight"`
		Queued        int64   `json:"queued"`
		Shed          uint64  `json:"shed_total"`
		Panics        uint64  `json:"panics_total"`
		ReloadRetries uint64  `json:"reload_retries"`
		Degraded      int     `json:"degraded"`
		GenAge        float64 `json:"generation_age_seconds"`
		Ingest        struct {
			Sources []struct {
				Name string `json:"name"`
			} `json:"sources"`
		} `json:"ingest"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &mr); err != nil {
		t.Fatalf("metrics: %v\n%s", err, w.Body.String())
	}
	if mr.Inflight != 0 || mr.Queued != 0 {
		t.Errorf("gauges inflight=%d queued=%d, want 0/0 at rest", mr.Inflight, mr.Queued)
	}
	if mr.Shed != 1 || mr.Panics != 1 || mr.ReloadRetries != 2 || mr.Degraded != 1 {
		t.Errorf("counters shed=%d panics=%d retries=%d degraded=%d",
			mr.Shed, mr.Panics, mr.ReloadRetries, mr.Degraded)
	}
	if mr.GenAge < 0 {
		t.Errorf("generation_age_seconds %v negative", mr.GenAge)
	}
	if len(mr.Ingest.Sources) == 0 {
		t.Fatal("ingest report has no sources")
	}
	for _, src := range mr.Ingest.Sources {
		if strings.HasPrefix(src.Name, "serve/") {
			t.Errorf("ingest report carries serving source %q", src.Name)
		}
	}
	body := w.Body.String()
	for _, key := range []string{`"shed`, `"panics`, `"reload_retries"`} {
		if n := strings.Count(body, key); n != 1 {
			t.Errorf("%s… appears %d times in /metrics, want once", key, n)
		}
	}

	// Degraded healthz: still 200, status flips, reload_error surfaces.
	w = getMW(m, "/healthz")
	if w.Code != 200 {
		t.Fatalf("degraded healthz status %d, want 200 (stale-but-available is healthy)", w.Code)
	}
	var hr struct {
		Status      string `json:"status"`
		Degraded    bool   `json:"degraded"`
		ReloadError string `json:"reload_error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "degraded" || !hr.Degraded || hr.ReloadError != "archive on fire" {
		t.Errorf("degraded healthz: %+v", hr)
	}

	// Healed: back to ok, no reload_error key.
	s.stats.Degraded.Store(false)
	s.stats.SetReloadError("")
	w = getMW(m, "/healthz")
	if !strings.Contains(w.Body.String(), `"status":"ok"`) ||
		strings.Contains(w.Body.String(), "reload_error") {
		t.Errorf("healed healthz: %s", w.Body.String())
	}
}
