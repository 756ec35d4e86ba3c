// Package scenario generates a deterministic synthetic Internet — AS
// topology, RIR allocations, RPKI archive, IRR registry, BGP event
// timeline, DROP snapshots, and SBL records — calibrated so that the
// paper's findings emerge from the emitted archives. The analysis package
// never reads the generator's ground truth; it consumes only the archives,
// exactly as the paper's pipeline consumed the public data sets.
package scenario

import (
	"dropscope/internal/timex"
)

// Params controls world generation. Every rate and count the paper pins is
// an explicit field so ablations can vary them. The zero value is not
// useful; start from DefaultParams.
type Params struct {
	Seed int64

	// Window is the study window (paper: 2019-06-05 .. 2022-03-30).
	Window timex.Range

	// Scale divides the paper's background population counts. The DROP
	// listings themselves (712 prefixes) are always generated at full
	// size; only the never-listed background scales. Generate refuses a
	// Scale below MinScale.
	Scale int

	// Collectors and peers per collector. FilteringPeers peers apply the
	// DROP list as a route filter (paper found 3).
	Collectors        int
	PeersPerCollector int
	FilteringPeers    int

	// Background population per RIR (paper counts; divided by Scale).
	BackgroundByRIR map[string]int
	// Base RPKI signing rate per RIR for never-listed prefixes (Table 1).
	BaseSignRate map[string]float64

	// DROP listing population.
	TotalListings     int // 712
	IncidentListings  int // 45 AFRINIC-incident hijack prefixes
	UnallocListings   int // 40
	HijackListings    int // 179 total labeled hijacked (incl. incidents)
	SnowshoeListings  int // ~220
	MalHostListings   int // ~60
	KnownSpamListings int // ~42
	// Removed is the number of listings Spamhaus removes before window
	// end; their SBL records are deleted (becoming "No SBL Record").
	RemovedByRIR map[string]int // paper: 7/18/40/37/83
	PresentByRIR map[string]int // paper: 11/37/169/9/172

	// Sign rates for prefixes added to DROP without a ROA (Table 1).
	RemovedSignRate map[string]float64 // 14.3/44.4/25.0/35.1/54.2 %
	PresentSignRate map[string]float64 // 0/21.6/0.6/0/19.8 %
	// Of removed-and-then-signed prefixes, fraction signed with an ASN
	// different from the BGP origin at listing time (§4.2: 82.3%).
	SignDifferentASN float64

	// Withdrawal-within-30-days probabilities by category (§4.1).
	WithdrawHijack  float64 // 0.707
	WithdrawUnalloc float64 // 0.548
	WithdrawOther   float64 // small

	// IRR behavior (§5).
	IRRCoverFraction      float64 // 31.7% of listings have route objects pre-listing
	IRRCreatedMonthBefore float64 // 32% of those created <1 month before listing
	IRRRemovedMonthAfter  float64 // 43% removed <1 month after
	HijackNamedASN        int     // 130 HJ prefixes with SBL-named hijacker ASN
	HijackIRRWithASN      int     // 57 of those have route objects with the hijacker ASN
	HijackIRROrgs         int     // 3 ORG-IDs behind 49 of the 57
	HijackIRRLatePair     int     // 2 created the IRR record >1 year after announcing

	// RPKI effectiveness (§6.1).
	PreSignedHijacks int // 3 hijacked prefixes RPKI-signed before listing

	// Deallocation behavior (§4.1).
	MalHostDeallocSpace float64 // 17.4% of MH space deallocated by window end
	RemovedDealloc      float64 // 8.8% of removed prefixes deallocated

	// AS0 policy dates (§2.3.1).
	APNICAS0Day  timex.Day // 2020-09-02
	LACNICAS0Day timex.Day // 2021-06-23
}

// DefaultParams returns the paper-calibrated parameters at 1/64 background
// scale — the whole pipeline runs in seconds while every rate and shape
// the paper reports is preserved.
func DefaultParams() Params {
	return Params{
		Seed:   1,
		Window: timex.Range{First: timex.MustParseDay("2019-06-05"), Last: timex.MustParseDay("2022-03-30")},
		Scale:  64,

		Collectors:        6,
		PeersPerCollector: 8,
		FilteringPeers:    3,

		BackgroundByRIR: map[string]int{
			"afrinic": 3901, "apnic": 42200, "arin": 65200, "lacnic": 15100, "ripencc": 68200,
		},
		BaseSignRate: map[string]float64{
			"afrinic": 0.118, "apnic": 0.263, "arin": 0.085, "lacnic": 0.255, "ripencc": 0.330,
		},

		TotalListings:     712,
		IncidentListings:  45,
		UnallocListings:   40,
		HijackListings:    179,
		SnowshoeListings:  220,
		MalHostListings:   60,
		KnownSpamListings: 42,
		RemovedByRIR: map[string]int{
			"afrinic": 7, "apnic": 18, "arin": 40, "lacnic": 37, "ripencc": 83,
		},
		PresentByRIR: map[string]int{
			"afrinic": 11, "apnic": 37, "arin": 169, "lacnic": 9, "ripencc": 172,
		},
		RemovedSignRate: map[string]float64{
			"afrinic": 0.143, "apnic": 0.444, "arin": 0.250, "lacnic": 0.351, "ripencc": 0.542,
		},
		PresentSignRate: map[string]float64{
			"afrinic": 0.0, "apnic": 0.216, "arin": 0.006, "lacnic": 0.0, "ripencc": 0.198,
		},
		SignDifferentASN: 0.823,

		WithdrawHijack:  0.707,
		WithdrawUnalloc: 0.548,
		WithdrawOther:   0.02,

		IRRCoverFraction:      0.317,
		IRRCreatedMonthBefore: 0.32,
		IRRRemovedMonthAfter:  0.43,
		HijackNamedASN:        130,
		HijackIRRWithASN:      57,
		HijackIRROrgs:         3,
		HijackIRRLatePair:     2,

		PreSignedHijacks: 3,

		MalHostDeallocSpace: 0.174,
		RemovedDealloc:      0.088,

		APNICAS0Day:  timex.MustParseDay("2020-09-02"),
		LACNICAS0Day: timex.MustParseDay("2021-06-23"),
	}
}

// MinScale is the smallest Scale the generator's address plan holds:
// below it the background populations exhaust the carved regions (at 6,
// every seed from 1 to 8 fails; at 7, every one generates).
const MinScale = 7

// scaled returns n divided by the scale factor (at least MinScale:
// Generate checks it), at least 1.
func (p Params) scaled(n int) int {
	v := n / p.Scale
	if v < 1 {
		v = 1
	}
	return v
}
