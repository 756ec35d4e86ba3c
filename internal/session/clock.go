// Clock abstraction for the supervision layer. Every timer the daemon's
// reload loop arms — the restart backoff and the archive watch poll —
// goes through a Clock so tests drive the whole loop deterministically
// with a FakeClock instead of sleeping.
package session

import (
	"sync"
	"time"
)

// Clock supplies the current time and timers. Real() returns the
// wall-clock implementation; NewFake returns a manually advanced one.
type Clock interface {
	Now() time.Time
	NewTimer(d time.Duration) Timer
}

// Timer is a restartable single-shot timer. Unlike time.Timer, Reset
// and Stop are safe to call without draining C, but C must be consumed
// from a single goroutine.
type Timer interface {
	C() <-chan time.Time
	Stop()
	Reset(d time.Duration)
}

// Real returns the wall-clock Clock.
func Real() Clock { return realClock{} }

type realClock struct{}

func (realClock) Now() time.Time                 { return time.Now() }
func (realClock) NewTimer(d time.Duration) Timer { return &realTimer{t: time.NewTimer(d)} }

type realTimer struct{ t *time.Timer }

func (r *realTimer) C() <-chan time.Time { return r.t.C }
func (r *realTimer) Stop()               { r.t.Stop() }

// Reset relies on the Go 1.23+ timer semantics (go.mod pins 1.24):
// Reset after a fire cannot deliver the stale value.
func (r *realTimer) Reset(d time.Duration) { r.t.Reset(d) }

// FakeClock is a deterministic Clock: time moves only through Advance,
// which fires every timer whose deadline has been reached. Safe for
// concurrent use.
type FakeClock struct {
	mu      sync.Mutex
	now     time.Time
	timers  map[*fakeTimer]struct{}
	changed chan struct{} // closed and replaced on every state change
}

// NewFake returns a FakeClock starting at the given instant.
func NewFake(start time.Time) *FakeClock {
	return &FakeClock{
		now:     start,
		timers:  make(map[*fakeTimer]struct{}),
		changed: make(chan struct{}),
	}
}

// Now returns the fake instant.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// NewTimer arms a timer d from the fake now. A non-positive d fires on
// the next Advance (or immediately at creation for d <= 0).
func (c *FakeClock) NewTimer(d time.Duration) Timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &fakeTimer{
		clock:  c,
		ch:     make(chan time.Time, 1),
		when:   c.now.Add(d),
		active: true,
	}
	if !t.when.After(c.now) {
		t.fireLocked(c.now)
	}
	c.timers[t] = struct{}{}
	c.signalLocked()
	return t
}

// Advance moves the fake time forward and fires every due timer.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	for t := range c.timers {
		if t.active && !t.when.After(c.now) {
			t.fireLocked(c.now)
		}
	}
	c.signalLocked()
}

// BlockUntil waits until at least n timers are armed — the
// synchronization point between a test's Advance and the goroutine
// under test arming its timer.
func (c *FakeClock) BlockUntil(n int) {
	for {
		c.mu.Lock()
		active := 0
		for t := range c.timers {
			if t.active {
				active++
			}
		}
		ch := c.changed
		c.mu.Unlock()
		if active >= n {
			return
		}
		<-ch
	}
}

// signalLocked wakes every BlockUntil waiter.
func (c *FakeClock) signalLocked() {
	close(c.changed)
	c.changed = make(chan struct{})
}

type fakeTimer struct {
	clock  *FakeClock
	ch     chan time.Time
	when   time.Time
	active bool
}

func (t *fakeTimer) C() <-chan time.Time { return t.ch }

func (t *fakeTimer) Stop() {
	c := t.clock
	c.mu.Lock()
	defer c.mu.Unlock()
	t.active = false
	delete(c.timers, t)
	c.signalLocked()
}

func (t *fakeTimer) Reset(d time.Duration) {
	c := t.clock
	c.mu.Lock()
	defer c.mu.Unlock()
	select { // drop an unconsumed fire; Reset re-arms cleanly
	case <-t.ch:
	default:
	}
	t.when = c.now.Add(d)
	t.active = true
	c.timers[t] = struct{}{}
	if !t.when.After(c.now) {
		t.fireLocked(c.now)
	}
	c.signalLocked()
}

// fireLocked delivers the tick and disarms. Callers hold clock.mu.
func (t *fakeTimer) fireLocked(now time.Time) {
	t.active = false
	select {
	case t.ch <- now:
	default:
	}
}
