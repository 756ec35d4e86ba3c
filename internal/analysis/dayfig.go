package analysis

import (
	"dropscope/internal/netx"
	"dropscope/internal/timex"
)

// DayFigures is the per-day cut of the study the serving layer exposes
// at /v1/figures/{day}: the routed address space, MOAS conflict count,
// DROP listing pressure, and live ROA population on one day. The
// routed and MOAS fields are whole-index sweeps; the serving layer
// computes a day once per generation and keeps only its encoded answer.
type DayFigures struct {
	Day timex.Day `json:"day"`
	// RoutedAddrs is the union address space observed by at least one
	// peer, in addresses; RoutedSlash8 expresses it in the paper's /8
	// equivalents.
	RoutedAddrs  uint64  `json:"routed_addrs"`
	RoutedSlash8 float64 `json:"routed_slash8"`
	// MOASConflicts counts prefixes simultaneously originated by more
	// than one AS — the coarse hijack-detector signature.
	MOASConflicts int `json:"moas_conflicts"`
	// DROPListed counts prefixes on the DROP list effective that day;
	// DROPListedAddrs is their summed address space (not unioned — DROP
	// entries do not nest in practice).
	DROPListed      int    `json:"drop_listed"`
	DROPListedAddrs uint64 `json:"drop_listed_addrs"`
	// ROAsLive counts ROAs live under any trust anchor.
	ROAsLive int `json:"roas_live"`
}

// ListedCountAt returns how many DROP listings were effective on day d
// and their summed address space. It scans the diffed listing events —
// O(listings), allocation-free — rather than materializing the day's
// snapshot.
func (p *Pipeline) ListedCountAt(d timex.Day) (n int, addrs uint64) {
	for _, l := range p.Listings {
		if l.Added <= d && (!l.HasRemoved || d < l.Removed) {
			n++
			addrs += l.Prefix.NumAddrs()
		}
	}
	return n, addrs
}

// FigureDay computes the per-day figures for d: one routed-space and
// one MOAS sweep of the index, and linear scans of the DROP listings
// and ROAs. It bypasses the query cache, so a daemon crawling every
// day retains none of the sweeps, only what its caller keeps of the
// answer.
func (p *Pipeline) FigureDay(d timex.Day) DayFigures {
	f := DayFigures{Day: d}
	f.RoutedAddrs = p.Index.RoutedSpace(d, 1).AddrCount()
	f.RoutedSlash8 = netx.SlashEquivalents(f.RoutedAddrs, 8)
	f.MOASConflicts = len(p.Index.MOASConflicts(d))
	f.DROPListed, f.DROPListedAddrs = p.ListedCountAt(d)
	f.ROAsLive = len(p.ds.RPKI.LiveAt(d, nil))
	return f
}
