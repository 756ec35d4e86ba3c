package serve

import (
	"sync"
	"sync/atomic"
	"time"
)

// Stats is the serving layer's shared resilience accounting: the
// admission gate, panic-recovery middleware, reload supervisor, and
// the /healthz and /metrics renderers all read and write one Stats.
// Every field is atomic, so the zero-alloc handlers touch it freely.
// Unlike the per-generation ingest health (which is rebuilt on every
// swap), Stats spans the daemon's whole lifetime.
type Stats struct {
	Inflight atomic.Int64  // requests currently executing
	Queued   atomic.Int64  // requests waiting for an inflight slot
	Shed     atomic.Uint64 // requests rejected 503 by admission or drain
	Panics   atomic.Uint64 // handler panics contained by the middleware

	ReloadRetries atomic.Uint64 // failed reload attempts retried under backoff
	DeltaReloads  atomic.Uint64 // generations installed via the incremental append path
	Degraded      atomic.Bool   // serving stale: the last reload cycle is failing
	genBorn       atomic.Int64  // unix nanos when the current generation was published

	ScrubPasses  atomic.Uint64 // completed background verification passes
	ScrubBytes   atomic.Uint64 // payload bytes re-verified by the scrubber
	CorruptTotal atomic.Uint64 // corruption findings: the live generation's files and the store's framed files

	mu            sync.Mutex
	lastReloadErr string
	lastScrubErr  string
}

// markGeneration records a freshly published generation; /healthz and
// /metrics report the age relative to it.
func (st *Stats) markGeneration(now time.Time) { st.genBorn.Store(now.UnixNano()) }

// GenerationAge returns how long the current generation has been
// serving (zero before the first install).
func (st *Stats) GenerationAge(now time.Time) time.Duration {
	born := st.genBorn.Load()
	if born == 0 {
		return 0
	}
	return now.Sub(time.Unix(0, born))
}

// SetReloadError records the most recent reload failure for /healthz
// ("" clears it on success).
func (st *Stats) SetReloadError(msg string) {
	st.mu.Lock()
	st.lastReloadErr = msg
	st.mu.Unlock()
}

// ReloadError returns the most recent reload failure message.
func (st *Stats) ReloadError() string {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lastReloadErr
}

// SetScrubError records the most recent scrub corruption finding for
// /healthz ("" clears it — a fresh generation swapped in).
func (st *Stats) SetScrubError(msg string) {
	st.mu.Lock()
	st.lastScrubErr = msg
	st.mu.Unlock()
}

// ScrubError returns the most recent scrub corruption finding.
func (st *Stats) ScrubError() string {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lastScrubErr
}
