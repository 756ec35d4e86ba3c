// Package session retries failing work under supervision. A Supervisor
// runs a session function, and when it fails, restarts it under
// jittered exponential backoff with an optional restart budget. The
// query daemon's generation reload (serve/reload.go) runs under one.
// All waiting goes through a Clock, so tests drive every retry
// deterministically.
package session

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// ErrBudgetExhausted is returned (wrapped) by Supervisor.Run when a
// session fails more than Config.Budget times inside Config.Window.
var ErrBudgetExhausted = errors.New("session: restart budget exhausted")

// Backoff shapes the wait between restarts: Min doubling (by Factor)
// up to Max, plus a deterministic jitter fraction drawn from the
// supervisor's seed.
type Backoff struct {
	Min    time.Duration // first wait; 0 means 500ms
	Max    time.Duration // cap; 0 means 30s
	Factor float64       // growth per consecutive failure; 0 means 2
	Jitter float64       // extra wait up to this fraction of the step; 0 means none
}

func (b Backoff) withDefaults() Backoff {
	if b.Min <= 0 {
		b.Min = 500 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 30 * time.Second
	}
	if b.Factor < 1 {
		b.Factor = 2
	}
	return b
}

// step returns the base wait for the given consecutive-failure count.
func (b Backoff) step(attempt int) time.Duration {
	d := float64(b.Min)
	for i := 0; i < attempt; i++ {
		d *= b.Factor
		if d >= float64(b.Max) {
			return b.Max
		}
	}
	if d > float64(b.Max) {
		return b.Max
	}
	return time.Duration(d)
}

// Event describes one supervised restart, for logging and tests.
type Event struct {
	Name    string        // supervisor name
	Attempt int           // consecutive failures so far (1 on the first restart)
	Err     error         // the failure that triggered the restart
	Wait    time.Duration // jittered backoff before the next attempt
}

// Config parameterizes a Supervisor. The zero value is usable: real
// clock, 500ms..30s doubling backoff, no jitter, unlimited restarts.
type Config struct {
	Backoff Backoff
	// Budget caps restarts inside Window; a session failing more often
	// is abandoned with ErrBudgetExhausted. Zero means unlimited.
	Budget int
	// Window is the sliding budget window; zero means one minute.
	Window time.Duration
	// StableAfter resets the backoff sequence when a session survives
	// at least this long; zero means one minute.
	StableAfter time.Duration
	// Clock drives all waiting; nil means the real clock.
	Clock Clock
	// Seed feeds the deterministic jitter source.
	Seed uint64
	// OnRetry, when non-nil, observes every restart decision.
	OnRetry func(Event)
}

// Supervisor restarts a failing session function under backoff.
type Supervisor struct {
	name string
	run  func(context.Context) error
	cfg  Config

	clock    Clock
	backoff  Backoff
	rng      uint64
	restarts int
}

// New returns a Supervisor for the session function. run is restarted
// every time it returns a non-nil error; returning nil, or the context
// ending, stops supervision.
func New(name string, run func(context.Context) error, cfg Config) *Supervisor {
	if cfg.Clock == nil {
		cfg.Clock = Real()
	}
	if cfg.Window <= 0 {
		cfg.Window = time.Minute
	}
	if cfg.StableAfter <= 0 {
		cfg.StableAfter = time.Minute
	}
	return &Supervisor{
		name:    name,
		run:     run,
		cfg:     cfg,
		clock:   cfg.Clock,
		backoff: cfg.Backoff.withDefaults(),
		rng:     cfg.Seed,
	}
}

// Restarts returns how many times the session has been restarted.
func (s *Supervisor) Restarts() int { return s.restarts }

// next advances the supervisor's splitmix64 jitter state.
func (s *Supervisor) next() uint64 {
	s.rng += 0x9E3779B97F4A7C15
	z := s.rng
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// wait returns the jittered backoff for the given consecutive-failure
// count, never exceeding Max.
func (s *Supervisor) wait(attempt int) time.Duration {
	d := s.backoff.step(attempt)
	if s.backoff.Jitter > 0 {
		frac := float64(s.next()%1000) / 1000
		d += time.Duration(s.backoff.Jitter * frac * float64(d))
		if d > s.backoff.Max {
			d = s.backoff.Max
		}
	}
	return d
}

// Run supervises the session until it returns nil, the context ends,
// or the restart budget is exhausted. The error of the final attempt
// is wrapped into the budget error.
func (s *Supervisor) Run(ctx context.Context) error {
	attempt := 0 // consecutive failures
	var windowStart time.Time
	inWindow := 0
	for {
		start := s.clock.Now()
		err := s.run(ctx)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err == nil {
			return nil
		}
		now := s.clock.Now()
		if now.Sub(start) >= s.cfg.StableAfter {
			attempt = 0
		}
		attempt++
		if s.cfg.Budget > 0 {
			if windowStart.IsZero() || now.Sub(windowStart) > s.cfg.Window {
				windowStart = now
				inWindow = 0
			}
			inWindow++
			if inWindow > s.cfg.Budget {
				return fmt.Errorf("%w: %s failed %d times in %v: %v",
					ErrBudgetExhausted, s.name, inWindow, s.cfg.Window, err)
			}
		}
		wait := s.wait(attempt - 1)
		s.restarts++
		if s.cfg.OnRetry != nil {
			s.cfg.OnRetry(Event{Name: s.name, Attempt: attempt, Err: err, Wait: wait})
		}
		t := s.clock.NewTimer(wait)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C():
		}
	}
}
