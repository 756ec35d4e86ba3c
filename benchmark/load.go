package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"time"

	"dropscope/internal/netx"
	"dropscope/internal/rib"
	"dropscope/internal/timex"
)

// Endpoint kinds a ring entry can be.
const (
	kVisibility = iota
	kROV
	kDrop
	kOrigins
	kFigures
	kHealthz
	kMetrics
	numKinds
)

var kindNames = [numKinds]string{"visibility", "rov", "drop", "origins", "figures", "healthz", "metrics"}

// mix is the share of each endpoint kind, in units of 1/ringBlock.
type mix [numKinds]int

// ringBlock is the stratum size: every aligned run of ringBlock ring
// entries holds each kind in exactly its share, shuffled. A measured
// window covers a seed-dependent stretch of the ring, and one
// /v1/figures request costs as much as a thousand point lookups, so
// drawing kinds independently would make qps a function of how many
// heavy requests the stretch happened to hold.
const ringBlock = 1000

const ringSize = 65536

var (
	// pointMix is the point share of the mix BENCH_PR6 was taken with
	// (visibility 50 / rov 25 / drop 15), renormalised to the whole.
	pointMix = mix{kVisibility: 556, kROV: 278, kDrop: 166}
	// mixedMix is that mix itself (point 90 % in the same split, origins
	// 5 %, figures 4 %) with its 1 % of /healthz split into 0.8 % /healthz
	// and one /metrics scrape per 500 requests.
	mixedMix = mix{kVisibility: 500, kROV: 250, kDrop: 150, kOrigins: 50, kFigures: 40, kHealthz: 8, kMetrics: 2}
)

// splitmix64 is the ring's PRNG: the ring is a pure function of the
// seed on every Go version.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e91b
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ring is the request sequence the closed-loop clients walk.
type ring struct {
	paths []string
	kinds []uint8
}

// figureDayCount is how many distinct days the ring's /v1/figures
// requests ask for.
const figureDayCount = 64

// figureDays spreads figureDayCount days evenly over the window from a
// seeded offset. The daemon memoises a day's two whole-index sweeps for
// the life of a generation, so a ring drawing figure days from the whole
// window (1030 days) would speed up for as long as it ran: the first
// request for a day costs milliseconds, every later one microseconds.
// A fixed set is asked for once before the window opens (that cost is
// figures_first_ms) and the window then measures the steady state.
func figureDays(window timex.Range, seed uint64) []timex.Day {
	days := window.Days()
	state := seed ^ 0xf1957e5
	offset := int(splitmix64(&state) % uint64(days))
	out := make([]timex.Day, figureDayCount)
	for i := range out {
		out[i] = window.First + timex.Day((offset+i*days/figureDayCount)%days)
	}
	return out
}

// buildRing generates n request paths over the index's prefix universe
// (uniform, so a prefix-range sharded daemon sees every shard equally)
// and the window's days; /v1/figures requests ask for one of figDays.
func buildRing(ix rib.Querier, window timex.Range, seed uint64, n int, m mix, figDays []timex.Day) (*ring, error) {
	total := 0
	for _, s := range m {
		total += s
	}
	if total != ringBlock {
		return nil, fmt.Errorf("mix shares sum to %d, want %d", total, ringBlock)
	}
	prefixes := ix.Prefixes()
	if len(prefixes) == 0 {
		return nil, errors.New("index has no prefixes")
	}
	days := window.Days()
	if days < 1 {
		days = 1
	}
	state := seed
	block := make([]uint8, 0, ringBlock)
	for k, s := range m {
		for i := 0; i < s; i++ {
			block = append(block, uint8(k))
		}
	}
	r := &ring{paths: make([]string, 0, n), kinds: make([]uint8, 0, n)}
	for len(r.paths) < n {
		for i := len(block) - 1; i > 0; i-- {
			j := int(splitmix64(&state) % uint64(i+1))
			block[i], block[j] = block[j], block[i]
		}
		for _, k := range block {
			if len(r.paths) == n {
				break
			}
			p := prefixes[splitmix64(&state)%uint64(len(prefixes))]
			d := window.First + timex.Day(splitmix64(&state)%uint64(days))
			var path string
			switch k {
			case kVisibility:
				path = fmt.Sprintf("/v1/visibility?prefix=%s&day=%s", escapePrefix(p), d)
			case kROV:
				// Half the rov requests pin an origin (the zero-alloc
				// path), half let the daemon derive the observed one —
				// only where one exists, or the ring would hold 404s.
				_, observed := ix.OriginAt(p, d)
				if !observed || splitmix64(&state)%2 == 0 {
					path = fmt.Sprintf("/v1/rov?prefix=%s&day=%s&origin=%d", escapePrefix(p), d, splitmix64(&state)%70000)
				} else {
					path = fmt.Sprintf("/v1/rov?prefix=%s&day=%s", escapePrefix(p), d)
				}
			case kDrop:
				path = fmt.Sprintf("/v1/drop?prefix=%s&day=%s", escapePrefix(p), d)
			case kOrigins:
				path = fmt.Sprintf("/v1/origins?prefix=%s", escapePrefix(p))
			case kFigures:
				path = figurePath(figDays[splitmix64(&state)%uint64(len(figDays))])
			case kHealthz:
				path = "/healthz"
			case kMetrics:
				path = "/metrics"
			}
			r.paths = append(r.paths, path)
			r.kinds = append(r.kinds, k)
		}
	}
	return r, nil
}

func figurePath(d timex.Day) string { return fmt.Sprintf("/v1/figures/%s", d) }

// escapePrefix percent-encodes the slash, so the daemon's own unescaper
// is on the measured path as it is for a real client.
func escapePrefix(p netx.Prefix) string {
	return strings.Replace(p.String(), "/", "%2F", 1)
}

// oracleSample is how many ring entries are compared byte for byte.
const oracleSample = 256

// expectations holds the in-process answers for a fixed sample of the
// ring. /healthz and /metrics carry the generation's age and are
// checked for status and generation only.
func expectations(h http.Handler, r *ring) (map[int][]byte, error) {
	want := make(map[int][]byte, oracleSample)
	step := len(r.paths) / oracleSample
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(r.paths) && len(want) < oracleSample; i += step {
		j := i
		for j < len(r.paths) && (r.kinds[j] == kHealthz || r.kinds[j] == kMetrics) {
			j++
		}
		if j == len(r.paths) {
			break
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, r.paths[j], nil))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("in-process answer for %s: status %d", r.paths[j], rec.Code)
		}
		want[j] = rec.Body.Bytes()
	}
	return want, nil
}

// loadConfig is one closed-loop measurement.
type loadConfig struct {
	base    string
	ring    *ring
	clients int
	warmup  time.Duration
	window  time.Duration
	gens    []string       // acceptable generation digests
	want    map[int][]byte // expected bodies by ring index
}

// sample is one completed request inside the measured window.
type sample struct {
	end int64 // ns since the window opened
	lat int64 // ns, send -> body fully read
}

// loadResult is what a closed-loop run observed.
type loadResult struct {
	samples   []sample // successful requests, unordered
	attempted int
	failed    int
	firstErr  error
	seconds   float64
}

// newClient returns an HTTP client holding one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}
}

// fetch issues one GET and reads the body into buf.
func fetch(c *http.Client, u *url.URL, buf *bytes.Buffer) (*http.Response, error) {
	resp, err := c.Do(&http.Request{Method: http.MethodGet, URL: u, Host: u.Host, Header: http.Header{}})
	if err != nil {
		return nil, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp, err
}

// checkResponse is the per-response correctness check.
func checkResponse(resp *http.Response, gens []string, want, got []byte) error {
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	g := resp.Header.Get(generationHeader)
	ok := false
	for _, w := range gens {
		ok = ok || g == w
	}
	if !ok {
		return fmt.Errorf("generation %.12s, want one of %.12v", g, gens)
	}
	if want != nil && !bytes.Equal(want, got) {
		return fmt.Errorf("body differs from the in-process answer:\n got %s\nwant %s", got, want)
	}
	return nil
}

// runLoad drives the ring from cfg.clients closed-loop clients: each
// holds one connection and sends its next request when the previous
// reply has been read in full. Client i starts i/clients of the way
// round the ring. Requests completing during the warm-up are checked
// but not recorded.
func runLoad(ctx context.Context, cfg loadConfig) (loadResult, error) {
	urls := make([]*url.URL, len(cfg.ring.paths))
	for i, p := range cfg.ring.paths {
		u, err := url.Parse(cfg.base + p)
		if err != nil {
			return loadResult{}, err
		}
		urls[i] = u
	}
	type part struct {
		samples   []sample
		attempted int
		failed    int
		firstErr  error
	}
	parts := make([]part, cfg.clients)
	open := time.Now().Add(cfg.warmup)
	closeAt := open.Add(cfg.window)
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			pt := &parts[c]
			// Sized so the window never grows the slice: 40k requests
			// per second and client is twice what loopback delivers.
			pt.samples = make([]sample, 0, int(cfg.window.Seconds()*40000)+1)
			client := newClient()
			defer client.CloseIdleConnections()
			var buf bytes.Buffer
			i := c * len(urls) / cfg.clients
			for ctx.Err() == nil {
				t0 := time.Now()
				if !t0.Before(closeAt) {
					return
				}
				resp, err := fetch(client, urls[i], &buf)
				t1 := time.Now()
				if err == nil {
					err = checkResponse(resp, cfg.gens, cfg.want[i], buf.Bytes())
				}
				measured := !t1.Before(open) && t1.Before(closeAt)
				if measured {
					pt.attempted++
				}
				switch {
				case err != nil:
					// A failure outside the window still fails the run.
					pt.failed++
					if !measured {
						pt.attempted++
					}
					if pt.firstErr == nil {
						pt.firstErr = fmt.Errorf("GET %s: %w", cfg.ring.paths[i], err)
					}
				case measured:
					pt.samples = append(pt.samples, sample{end: int64(t1.Sub(open)), lat: int64(t1.Sub(t0))})
				}
				if i++; i == len(urls) {
					i = 0
				}
			}
		}(c)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return loadResult{}, err
	}
	res := loadResult{seconds: cfg.window.Seconds()}
	for _, pt := range parts {
		res.samples = append(res.samples, pt.samples...)
		res.attempted += pt.attempted
		res.failed += pt.failed
		if res.firstErr == nil {
			res.firstErr = pt.firstErr
		}
	}
	return res, nil
}

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of sorted.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// topPercentile is the highest of 50, 90, 99, 99.9, ... that still has
// at least ten of n samples beyond it.
func topPercentile(n int) float64 {
	best := 0.5
	for tail := 10; tail <= 100000; tail *= 10 {
		if n/tail >= 10 { // integers: 100 * (1 - 0.9) is 9.999999999999998
			best = 1 - 1/float64(tail)
		}
	}
	return best
}

// minP99Samples is the fewest samples a p99 is printed from.
const minP99Samples = 1000

// latencySummary is what a mix's closed-loop windows report.
type latencySummary struct {
	n      int // successful replies in the windows
	slices int
	qps    float64
	p50us  float64
	p99us  float64
	topQ   float64 // all windows: the highest percentile with ten samples beyond it
	topUs  float64
	topN   int // samples beyond topQ
	maxUs  float64
}

// summarize reduces a mix's windows (one per round) to their best
// one-second slice: the highest rate of successful replies, the lowest
// p50, the lowest p99, each taken on its own. A whole-window p99 is set
// by the worst 1 % of requests, which on a shared box are whichever
// requests a neighbour's burst landed on; the quietest second is what
// the daemon does when left alone, and is the steadier number
// (README.md). A stall of the daemon's own that recurs less than once a
// second would hide from it, which is why the top percentile and the
// maximum over all the windows are printed beside it, ungated.
func summarize(windows []loadResult) (latencySummary, error) {
	var s latencySummary
	var all []int64
	var rates, p50s, p99s []float64
	for _, r := range windows {
		s.n += len(r.samples)
		nslices := max(int(r.seconds), 1)
		width := int64(r.seconds * float64(time.Second) / float64(nslices))
		bySlice := make([][]int64, nslices)
		for _, sm := range r.samples {
			i := min(int(sm.end/width), nslices-1)
			bySlice[i] = append(bySlice[i], sm.lat)
			all = append(all, sm.lat)
		}
		for _, lats := range bySlice {
			if len(lats) < 100 {
				continue // a slice this thin has no p99 of its own
			}
			slices.Sort(lats)
			rates = append(rates, float64(len(lats))/(float64(width)/1e9))
			p50s = append(p50s, float64(quantile(lats, 0.50))/1e3)
			p99s = append(p99s, float64(quantile(lats, 0.99))/1e3)
		}
	}
	if s.n < minP99Samples {
		return s, fmt.Errorf("only %d samples in the windows; p99_us needs %d", s.n, minP99Samples)
	}
	if len(rates) == 0 {
		return s, errors.New("no one-second slice of the windows holds 100 samples")
	}
	s.slices = len(rates)
	s.qps, s.p50us, s.p99us = highest(rates), fastest(p50s), fastest(p99s)
	slices.Sort(all)
	s.topQ = topPercentile(s.n)
	s.topUs = float64(quantile(all, s.topQ)) / 1e3
	s.topN = s.n - int(math.Ceil(s.topQ*float64(s.n)))
	s.maxUs = float64(all[len(all)-1]) / 1e3
	return s, nil
}

// median of xs (mean of the middle two when even); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// probe is a one-connection closed loop against a single path, run
// beside a reload: it sees the moment the new generation first answers
// and the longest any request stalled meanwhile.
type probe struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu       sync.Mutex
	seen     map[string]time.Time // generation -> first reply carrying it
	maxLat   time.Duration
	n        int
	failed   int
	firstErr error
}

func startProbe(ctx context.Context, base, path string, gens []string) (*probe, error) {
	u, err := url.Parse(base + path)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	p := &probe{cancel: cancel, done: make(chan struct{}), seen: map[string]time.Time{}}
	go func() {
		defer close(p.done)
		client := newClient()
		defer client.CloseIdleConnections()
		var buf bytes.Buffer
		for ctx.Err() == nil {
			t0 := time.Now()
			resp, err := fetch(client, u, &buf)
			t1 := time.Now()
			if err == nil {
				err = checkResponse(resp, gens, nil, nil)
			}
			p.mu.Lock()
			p.n++
			if err != nil {
				if ctx.Err() == nil {
					p.failed++
					if p.firstErr == nil {
						p.firstErr = fmt.Errorf("probe GET %s: %w", path, err)
					}
				} else {
					p.n--
				}
			} else {
				g := resp.Header.Get(generationHeader)
				if _, ok := p.seen[g]; !ok {
					p.seen[g] = t1
				}
				if d := t1.Sub(t0); d > p.maxLat {
					p.maxLat = d
				}
			}
			p.mu.Unlock()
		}
	}()
	return p, nil
}

// waitGen blocks until a reply carried generation g and returns when.
func (p *probe) waitGen(ctx context.Context, g string, limit time.Duration) (time.Time, error) {
	deadline := time.Now().Add(limit)
	for {
		p.mu.Lock()
		at, ok := p.seen[g]
		err := p.firstErr
		p.mu.Unlock()
		if ok {
			return at, nil
		}
		if err != nil {
			return time.Time{}, err
		}
		if time.Now().After(deadline) {
			return time.Time{}, fmt.Errorf("generation %.12s not served within %v of SIGHUP", g, limit)
		}
		select {
		case <-ctx.Done():
			return time.Time{}, ctx.Err()
		case <-time.After(200 * time.Microsecond):
		}
	}
}

func (p *probe) stop() {
	p.cancel()
	<-p.done
}
