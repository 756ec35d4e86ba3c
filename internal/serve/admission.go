package serve

import (
	"context"
	"time"
)

// Gate is the admission controller in front of the query handlers: at
// most MaxInflight requests execute at once, at most as many more wait
// (briefly) for a slot, and everything past that is shed immediately
// with 503 so the daemon's p99 for admitted requests stays flat while
// offered load grows. Both bounds are plain buffered channels; the
// uncontended path is a single non-blocking channel send and never
// allocates, which keeps the point-query handlers at 0 allocs/op with
// the gate installed.
type Gate struct {
	sem   chan struct{} // inflight slots
	queue chan struct{} // waiter slots
	wait  time.Duration // max time a queued request waits for a slot
	stats *Stats
}

const (
	// DefaultMaxInflight is the gate's inflight bound when
	// GateConfig.MaxInflight is zero.
	DefaultMaxInflight = 256
	// queueWait is how long a queued request waits for a slot before it
	// is shed — short by design; a request that cannot start promptly is
	// better shed than served late.
	queueWait = 100 * time.Millisecond
)

// GateConfig bounds the gate. The wait queue is as deep as MaxInflight
// (<= 0 takes DefaultMaxInflight) and waits queueWait.
type GateConfig struct {
	MaxInflight int

	// maxQueue overrides the queue depth (negative = no queue) and wait
	// the queue wait; the shed tests shrink both.
	maxQueue int
	wait     time.Duration
}

func (c GateConfig) withDefaults() GateConfig {
	if c.MaxInflight <= 0 {
		c.MaxInflight = DefaultMaxInflight
	}
	if c.maxQueue < 0 {
		c.maxQueue = 0
	} else if c.maxQueue == 0 {
		c.maxQueue = c.MaxInflight
	}
	if c.wait <= 0 {
		c.wait = queueWait
	}
	return c
}

// NewGate builds a gate reporting occupancy into stats (which must not
// be nil).
func NewGate(cfg GateConfig, stats *Stats) *Gate {
	cfg = cfg.withDefaults()
	return &Gate{
		sem:   make(chan struct{}, cfg.MaxInflight),
		queue: make(chan struct{}, cfg.maxQueue),
		wait:  cfg.wait,
		stats: stats,
	}
}

// Enter tries to admit one request. It returns true with a slot held —
// the caller must Leave exactly once — or false when the request should
// be shed. The fast path (a free slot) is one non-blocking send; only a
// request that actually queues pays for a timer.
func (g *Gate) Enter(ctx context.Context) bool {
	select {
	case g.sem <- struct{}{}:
		g.stats.Inflight.Add(1)
		return true
	default:
	}
	// Saturated: claim a bounded queue slot or shed on the spot.
	select {
	case g.queue <- struct{}{}:
	default:
		return false
	}
	g.stats.Queued.Add(1)
	t := time.NewTimer(g.wait)
	defer func() {
		t.Stop()
		g.stats.Queued.Add(-1)
		<-g.queue
	}()
	select {
	case g.sem <- struct{}{}:
		g.stats.Inflight.Add(1)
		return true
	case <-t.C:
		return false
	case <-ctx.Done():
		return false
	}
}

// Leave releases the slot claimed by a successful Enter.
func (g *Gate) Leave() {
	g.stats.Inflight.Add(-1)
	<-g.sem
}
