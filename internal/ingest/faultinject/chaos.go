// Chaos connection wrapper: the network counterpart of the MRT
// byte-stream damage in this package. A Chaoser wraps net.Conns so
// that each carries one seeded fault — a mid-message reset, a stall
// that ends in a reset, a partial write, or read truncation — and
// after a configured number of faults passes connections through
// untouched, so a server can be soaked with N deterministic failures
// and then checked for recovery (the daemon's TestChaosSoakServe).
//
// The fault parameters (kind, trigger byte count) are a pure function
// of the seed; the exact byte at which a fault lands may shift with
// goroutine interleaving on a real socket, but the sequence of kinds
// and budgets is reproducible.
package faultinject

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// FaultKind enumerates the connection faults a Chaoser injects.
type FaultKind uint8

const (
	// FaultReset closes the transport mid-message.
	FaultReset FaultKind = iota
	// FaultStall blocks the operation for the configured stall
	// duration, then resets — a peer that hangs and dies.
	FaultStall
	// FaultPartialWrite delivers a prefix of the crossing write, then
	// resets — the peer receives a truncated message.
	FaultPartialWrite
	// FaultTruncate cuts the read side: delivered bytes stop short and
	// subsequent reads see EOF, as when a peer's send dies silently.
	FaultTruncate
	numFaultKinds
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultReset:
		return "reset"
	case FaultStall:
		return "stall"
	case FaultPartialWrite:
		return "partial-write"
	case FaultTruncate:
		return "truncate"
	}
	return "unknown"
}

// ErrInjected is the sentinel every injected connection fault wraps;
// errors.Is(err, ErrInjected) distinguishes chaos from real failures.
var ErrInjected = errors.New("faultinject: injected connection fault")

// InjectedFault is the error a chaos connection returns when its
// fault fires.
type InjectedFault struct {
	Kind FaultKind
}

func (e *InjectedFault) Error() string {
	return fmt.Sprintf("faultinject: injected %s", e.Kind)
}

func (e *InjectedFault) Unwrap() error { return ErrInjected }

// Timeout marks stalls as timeout-like so deadline-aware session code
// classifies them the way it classifies a real stalled peer.
func (e *InjectedFault) Timeout() bool { return e.Kind == FaultStall }

// ChaosConfig shapes the injected faults.
type ChaosConfig struct {
	// MinBytes/MaxBytes bound how many bytes a connection carries (in
	// both directions combined) before its fault fires. Defaults 1 and
	// 512.
	MinBytes, MaxBytes int
	// Stall is how long a FaultStall blocks before resetting.
	// Default 10ms — long enough to exercise recovery, short enough
	// for soak tests.
	Stall time.Duration
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.MinBytes <= 0 {
		c.MinBytes = 1
	}
	if c.MaxBytes < c.MinBytes {
		c.MaxBytes = c.MinBytes + 511
	}
	if c.Stall <= 0 {
		c.Stall = 10 * time.Millisecond
	}
	return c
}

// Chaoser hands out chaos-wrapped connections until its fault budget
// is spent, then passes connections through untouched. Safe for
// concurrent use.
type Chaoser struct {
	mu        sync.Mutex
	in        *Injector
	cfg       ChaosConfig
	remaining int
	injected  int
}

// NewChaoser returns a Chaoser seeding its fault schedule from seed,
// with a budget of faults connections to damage.
func NewChaoser(seed uint64, cfg ChaosConfig, faults int) *Chaoser {
	return &Chaoser{in: New(seed), cfg: cfg.withDefaults(), remaining: faults}
}

// Remaining returns how many faults are still to be injected.
func (c *Chaoser) Remaining() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.remaining
}

// Injected returns how many chaos connections have been handed out.
func (c *Chaoser) Injected() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.injected
}

// Wrap returns conn armed with the next scheduled fault, or conn
// itself once the budget is spent.
func (c *Chaoser) Wrap(conn net.Conn) net.Conn {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.remaining <= 0 {
		return conn
	}
	c.remaining--
	c.injected++
	kind := FaultKind(c.in.intn(int(numFaultKinds)))
	budget := c.cfg.MinBytes
	if span := c.cfg.MaxBytes - c.cfg.MinBytes; span > 0 {
		budget += c.in.intn(span + 1)
	}
	return &chaosConn{Conn: conn, kind: kind, budget: budget, stall: c.cfg.Stall}
}

// chaosConn carries exactly one scheduled fault. Reads and writes
// drain the shared byte budget; the operation that crosses it fires
// the fault and kills the connection.
type chaosConn struct {
	net.Conn
	mu      sync.Mutex
	kind    FaultKind
	budget  int // bytes remaining before the fault fires
	stall   time.Duration
	tripped bool
}

func (c *chaosConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	if c.tripped {
		kind := c.kind
		c.mu.Unlock()
		if kind == FaultTruncate {
			return 0, io.EOF
		}
		return 0, &InjectedFault{Kind: kind}
	}
	if len(p) <= c.budget {
		c.mu.Unlock()
		got, err := c.Conn.Read(p)
		c.mu.Lock()
		c.budget -= got
		c.mu.Unlock()
		return got, err
	}
	// This read crosses the budget: the fault fires.
	n := c.budget
	c.budget = 0
	c.tripped = true
	kind := c.kind
	c.mu.Unlock()
	if kind == FaultTruncate {
		// Deliver the final budgeted bytes; subsequent reads see EOF.
		if n > 0 {
			return c.Conn.Read(p[:n])
		}
		_ = c.Conn.Close()
		return 0, io.EOF
	}
	if kind == FaultStall {
		time.Sleep(c.stall)
	}
	_ = c.Conn.Close()
	return 0, &InjectedFault{Kind: kind}
}

func (c *chaosConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if c.tripped {
		kind := c.kind
		c.mu.Unlock()
		return 0, &InjectedFault{Kind: kind}
	}
	if len(p) <= c.budget {
		c.mu.Unlock()
		wrote, err := c.Conn.Write(p)
		c.mu.Lock()
		c.budget -= wrote
		c.mu.Unlock()
		return wrote, err
	}
	// This write crosses the budget: the fault fires.
	n := c.budget
	c.budget = 0
	c.tripped = true
	kind := c.kind
	c.mu.Unlock()
	if kind == FaultStall {
		time.Sleep(c.stall)
	}
	wrote := 0
	if kind == FaultPartialWrite && n > 0 {
		// Forward the budgeted prefix so the peer decodes a truncated
		// message, then die.
		wrote, _ = c.Conn.Write(p[:n])
	}
	_ = c.Conn.Close()
	return wrote, &InjectedFault{Kind: kind}
}

func (c *chaosConn) Close() error { return c.Conn.Close() }
