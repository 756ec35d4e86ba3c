// Package serve is the read-only query layer over a loaded study: a
// long-lived HTTP/JSON daemon answering the paper's per-prefix questions
// (visibility, ROV outcome, DROP listing status, origin history, per-day
// figures) from one shared immutable index.
//
// The package follows the ingester/API split: something else builds the
// snapshot; serve only memory-maps it and answers queries. Concurrency
// is handled by immutability — a Generation never changes after
// construction, and replacing one is an atomic pointer swap guarded by
// the snapshot's refcount (see Server.Swap). Every response carries the
// generation digest so a client can always tell which archive state it
// was answered from; stale data is visible, never silent.
package serve

import (
	"encoding/hex"
	"encoding/json"
	"sync"

	"dropscope/internal/analysis"
	"dropscope/internal/bgp"
	"dropscope/internal/netx"
	"dropscope/internal/ribsnap"
	"dropscope/internal/rpki"
	"dropscope/internal/timex"
)

// Generation is one immutable, refcounted snapshot of the study: the
// mmap'd (or cold-built) RIB index and the analysis pipeline over it.
// All fields are read-only after newGeneration returns.
type Generation struct {
	snap *ribsnap.Snapshot
	pipe *analysis.Pipeline

	// shards is non-nil for a generation served from the snapshot store:
	// the residency manager over its directory's shard files (one, for a
	// monolith). The snap above is then the mapping-free master snapshot
	// whose lifecycle closes the set (see ribsnap.ShardSet.Master).
	shards *ribsnap.ShardSet

	digestHex string // lower-case hex of the archive digest
	window    timex.Range

	// deltaBuilt marks a generation produced by the incremental append
	// path (overlay replay + merge) rather than a warm map or a cold
	// rebuild. Observability only — the bytes served are identical.
	deltaBuilt bool

	// ingestJSON encodes the ingest report on the first /metrics scrape:
	// the load wrote the last of its health before it returned.
	ingestJSON func() []byte

	// figures holds one slot per window day: the day's whole
	// /v1/figures response, encoded on its first request. The slots
	// die with the generation, so a swap never serves an old answer.
	figures []figureSlot
}

type figureSlot struct {
	once sync.Once
	body []byte
}

// newGeneration wraps a loaded snapshot and its pipeline. The snapshot
// is mapping-free — the wrapper of an index built in memory, or the
// master of a store generation's shard set — and the lifecycle protocol
// is identical either way.
func newGeneration(snap *ribsnap.Snapshot, shards *ribsnap.ShardSet, pipe *analysis.Pipeline) *Generation {
	return &Generation{
		snap:      snap,
		pipe:      pipe,
		shards:    shards,
		digestHex: hex.EncodeToString(snap.Digest[:]),
		window:    pipe.Window(),
		ingestJSON: sync.OnceValue(func() []byte {
			rep, err := json.Marshal(pipe.HealthReport())
			if err != nil {
				return []byte("null")
			}
			return rep
		}),
		figures: make([]figureSlot, pipe.Window().Days()),
	}
}

// figuresBody returns the /v1/figures response for window day d,
// computing and encoding it on the day's first request.
func (g *Generation) figuresBody(d timex.Day) []byte {
	slot := &g.figures[d-g.window.First]
	slot.once.Do(func() {
		slot.body = g.appendGeneration(appendFigures(make([]byte, 0, 256), g.pipe.FigureDay(d)))
	})
	return slot.body
}

// Acquire pins the generation's mapping for the duration of one query.
// It fails with ribsnap.ErrClosed once the generation has been retired
// by a swap.
func (g *Generation) Acquire() error { return g.snap.Acquire() }

// Release undoes one Acquire. The retired mapping unmaps when the last
// in-flight reader releases.
func (g *Generation) Release() { g.snap.Release() }

// DigestHex returns the archive digest identifying this generation, as
// carried on every response.
func (g *Generation) DigestHex() string { return g.digestHex }

// Window returns the study window the generation covers.
func (g *Generation) Window() timex.Range { return g.window }

// Pipeline exposes the analysis pipeline for the allocating endpoints
// (figures, origin timelines) and tests.
func (g *Generation) Pipeline() *analysis.Pipeline { return g.pipe }

// Shards exposes the generation's shard residency manager, nil for a
// generation built in memory.
func (g *Generation) Shards() *ribsnap.ShardSet { return g.shards }

// DeltaBuilt reports whether the generation was produced by the
// incremental append path rather than a warm map or cold rebuild.
func (g *Generation) DeltaBuilt() bool { return g.deltaBuilt }

// ROV runs RFC 6811 origin validation of (p, origin) against the ROAs
// live on day d, under the default production TALs; as0 additionally
// admits the informational AS0 TALs.
func (g *Generation) ROV(p netx.Prefix, origin bgp.ASN, d timex.Day, as0 bool) rpki.Validity {
	tals := rpki.DefaultTALs
	if as0 {
		tals = rpki.WithAS0TALs
	}
	return g.pipe.Dataset().RPKI.ValidateAt(p, origin, d, tals)
}

// DropListed reports whether p was on the DROP list effective on day d.
func (g *Generation) DropListed(p netx.Prefix, d timex.Day) bool {
	return g.pipe.Dataset().DROP.ListedAt(p, d)
}

// Visibility returns the exact-route visibility of p on day d: how many
// of the index's peers carried it, out of how many registered.
func (g *Generation) Visibility(p netx.Prefix, d timex.Day) (visible, peers int) {
	return g.pipe.Index.VisibleCount(p, d), g.pipe.Index.NumPeers()
}
