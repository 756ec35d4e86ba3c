package scenario

import (
	"fmt"
	"math/rand"
	"sort"

	"dropscope/internal/bgp"
	"dropscope/internal/drop"
	"dropscope/internal/irr"
	"dropscope/internal/mrt"
	"dropscope/internal/netx"
	"dropscope/internal/rirstats"
	"dropscope/internal/routeviews"
	"dropscope/internal/rpki"
	"dropscope/internal/sbl"
	"dropscope/internal/timex"
	"dropscope/internal/topo"
)

// World bundles every archive the analysis pipeline consumes, plus the
// generator's ground truth (used only by calibration tests, never by the
// analysis itself).
type World struct {
	Params     Params
	Graph      *topo.Graph
	Collectors []routeviews.Collector
	MRT        map[string][]mrt.Record
	DROP       *drop.Archive
	SBL        *sbl.DB
	IRR        *irr.DB
	RPKI       *rpki.Archive
	RIR        *rirstats.Timeline

	Truth Truth
}

// Truth is generation ground truth for calibration tests.
type Truth struct {
	Listings       []*ListingTruth
	FilterPeers    []FilterPeerTruth
	CaseStudy      CaseStudyTruth
	BackgroundN    int
	UnlistedSquats []netx.Prefix
}

// FilterPeerTruth identifies one DROP-filtering peer.
type FilterPeerTruth struct {
	Collector string
	PeerAS    bgp.ASN
	PeerAddr  netx.Addr
}

// CaseStudyTruth records the Figure-4 actors.
type CaseStudyTruth struct {
	Prefix    netx.Prefix // 132.255.0.0/22
	OwnerAS   bgp.ASN     // 263692
	OwnerVia  bgp.ASN     // 21575
	HijackVia bgp.ASN     // 50509
	HijackDay timex.Day
	Siblings  []netx.Prefix
	ListedDay timex.Day
}

// ListingTruth is the ground truth of one DROP listing.
type ListingTruth struct {
	Prefix     netx.Prefix
	SBLRef     string
	Categories []sbl.Category
	RIR        rirstats.RIR
	Added      timex.Day
	Removed    timex.Day
	HasRemoved bool
	Incident   bool
	NamedASN   bgp.ASN // hijacker ASN named in the SBL record; 0 if none
	// TruthCats holds the hidden categories of removed listings whose SBL
	// record was deleted (observed category is NoRecord).
	TruthCats []sbl.Category

	AnnouncedDay timex.Day
	WithdrawnDay timex.Day
	HasWithdrawn bool
	IRRCreated   timex.Day
	HasIRR       bool
	IRRHijackASN bool // route object carries the named hijacker ASN
	PreSigned    bool // had a ROA before listing
	SignedAfter  bool // got its first ROA after listing
	Deallocated  bool
}

// carver hands out consecutive aligned prefixes from a region.
type carver struct {
	cursor netx.Addr
	end    netx.Addr // exclusive; 0 means wrapped top of space
	region netx.Prefix
}

func newCarver(region netx.Prefix) *carver {
	return &carver{cursor: region.FirstAddr(), end: region.LastAddr() + 1, region: region}
}

// take returns the next /bits prefix in the region, aligning the cursor up.
func (c *carver) take(bits int) (netx.Prefix, error) {
	size := netx.Addr(1) << (32 - uint(bits))
	// Align cursor up to the block size.
	cur := (c.cursor + size - 1) &^ (size - 1)
	if cur < c.cursor || (c.end != 0 && cur+size > c.end) || (c.end != 0 && cur >= c.end) {
		return netx.Prefix{}, fmt.Errorf("scenario: region %s exhausted carving /%d", c.region, bits)
	}
	c.cursor = cur + size
	return netx.PrefixFrom(cur, bits), nil
}

// rirRegions maps each RIR to the /8s it manages in the synthetic world.
var rirRegions = map[rirstats.RIR][]byte{
	rirstats.Afrinic: {41, 105, 154, 196, 197},
	rirstats.APNIC:   {1, 14, 27, 36, 39, 42, 43, 49, 58, 59, 60, 61, 101, 110, 111, 112, 113, 114},
	rirstats.ARIN:    {3, 4, 6, 7, 8, 9, 11, 12, 13, 15, 16, 17, 18, 20, 21, 22, 24, 32, 33, 34, 35, 63, 64, 65},
	// 45, 132, 187, 191, and 200 host hand-placed case-study prefixes and
	// are excluded from bulk carving.
	rirstats.LACNIC: {131, 177, 179, 181, 186, 189, 190, 201},
	rirstats.RIPE:   {5, 31, 37, 46, 62, 77, 78, 79, 80, 81, 82, 83, 84, 85, 86, 87, 88, 89, 90, 91},
}

// poolRegions are the dedicated free-pool areas (Fig 7); each RIR's pool
// is managed at /14 granularity inside these blocks.
var poolRegions = map[rirstats.RIR]string{
	rirstats.Afrinic: "102.0.0.0/9", // 28 /14 blocks used
	rirstats.ARIN:    "23.128.0.0/10",
	rirstats.LACNIC:  "148.0.0.0/10",
	rirstats.RIPE:    "185.0.0.0/10",
	rirstats.APNIC:   "103.128.0.0/11",
}

// poolBlocks is how many /14 free-pool blocks each RIR starts with
// (≈ the paper's Fig 7 starting pool sizes, /14 = 262144 addresses).
// Blocks are consumed from fixed ranges so squatted space never collides
// with in-window pool allocations: blocks [0..2] host never-listed squats,
// [3..] host squats that get listed on DROP, and in-window allocations are
// taken from the end of each pool.
var poolBlocks = map[rirstats.RIR]int{
	rirstats.Afrinic: 28, // ≈7.3M
	rirstats.ARIN:    9,  // ≈2.4M
	rirstats.LACNIC:  12, // ≈3.1M
	rirstats.RIPE:    8,  // ≈2.1M
	rirstats.APNIC:   8,  // ≈2.1M
}

// poolAllocations is how many of those blocks each RIR allocates during
// the window (the Fig 7 decline).
var poolAllocations = map[rirstats.RIR]int{
	rirstats.Afrinic: 10,
	rirstats.ARIN:    2,
	rirstats.LACNIC:  5,
	rirstats.RIPE:    3,
	rirstats.APNIC:   2,
}

// gen is the generation context.
type gen struct {
	p   Params
	rng *rand.Rand
	w   *World

	multi map[rirstats.RIR]*multiCarver
	pools map[rirstats.RIR][]netx.Prefix // /14 free-pool blocks

	// accumulated events, applied in day order at the end
	rirManage []manageEv
	rirStatus []statusEv
	roaEvents []roaEv
	irrEvents []irrEv
	bgpEvents []routeviews.Event
	dropAdds  map[timex.Day][]dropChange
	dropDels  map[timex.Day][]netx.Prefix

	deckPresent *rirDeck
	deckRemoved *rirDeck
	presentSign map[rirstats.RIR]*quotaSampler
	removedSign map[rirstats.RIR]*quotaSampler

	operatorAS  []bgp.ASN
	attackerAS  []bgp.ASN
	defunctAS   []bgp.ASN
	nextOrdinal int
}

type manageEv struct {
	p       netx.Prefix
	rir     rirstats.RIR
	initial rirstats.Status
}

type statusEv struct {
	day timex.Day
	p   netx.Prefix
	st  rirstats.Status
}

type roaEv struct {
	day    timex.Day
	revoke bool
	roa    rpki.ROA
}

type irrEv struct {
	day timex.Day
	del bool
	obj *irr.Object
}

type dropChange struct {
	p   netx.Prefix
	ref string
}

// Generate builds a world from the parameters.
func Generate(p Params) (*World, error) {
	if p.Scale < MinScale {
		return nil, fmt.Errorf("scenario: scale %d is below the generator's floor of %d: the address plan cannot hold larger background populations", p.Scale, MinScale)
	}
	g := &gen{
		p:        p,
		rng:      rand.New(rand.NewSource(p.Seed)),
		w:        &World{Params: p, SBL: sbl.NewDB(), DROP: drop.NewArchive(), IRR: &irr.DB{}, RPKI: &rpki.Archive{}, RIR: &rirstats.Timeline{}},
		pools:    make(map[rirstats.RIR][]netx.Prefix),
		dropAdds: make(map[timex.Day][]dropChange),
		dropDels: make(map[timex.Day][]netx.Prefix),
	}
	g.buildTopology()
	if err := g.buildAddressPlan(); err != nil {
		return nil, err
	}
	if err := g.buildBackground(); err != nil {
		return nil, err
	}
	if err := g.buildListings(); err != nil {
		return nil, err
	}
	g.buildAS0Policy()
	if err := g.assemble(); err != nil {
		return nil, err
	}
	return g.w, nil
}

// day returns a uniform random day in [a, b].
func (g *gen) day(a, b timex.Day) timex.Day {
	if b <= a {
		return a
	}
	return a + timex.Day(g.rng.Intn(int(b-a)+1))
}

func (g *gen) chance(p float64) bool { return g.rng.Float64() < p }

// --- topology ---------------------------------------------------------

// Well-known actors from the paper's case study.
const (
	asOwner      bgp.ASN = 263692 // Peruvian origin of 132.255.0.0/22
	asOwnerVia   bgp.ASN = 21575  // its long-time South American transit
	asHijackVia  bgp.ASN = 50509  // Russian transit used by the hijacker
	asHijackVia2 bgp.ASN = 34665  // 50509's upstream
)

func (g *gen) buildTopology() {
	var t topo.Graph
	tier1 := []bgp.ASN{1001, 1002, 1003, 1004}
	for i := 0; i < len(tier1); i++ {
		for j := i + 1; j < len(tier1); j++ {
			_ = t.Link(tier1[i], tier1[j], topo.PeerWith)
		}
	}
	var transits []bgp.ASN
	for i := 0; i < 24; i++ {
		asn := bgp.ASN(2001 + i)
		transits = append(transits, asn)
		_ = t.Link(tier1[i%4], asn, topo.ProviderOf)
		_ = t.Link(tier1[(i+1)%4], asn, topo.ProviderOf)
	}
	// A few lateral peerings among transits for path diversity.
	for i := 0; i+1 < len(transits); i += 3 {
		_ = t.Link(transits[i], transits[i+1], topo.PeerWith)
	}

	// Case-study actors.
	_ = t.Link(tier1[0], asOwnerVia, topo.ProviderOf)
	_ = t.Link(tier1[1], asOwnerVia, topo.ProviderOf)
	_ = t.Link(asOwnerVia, asOwner, topo.ProviderOf)
	_ = t.Link(tier1[3], asHijackVia2, topo.ProviderOf)
	_ = t.Link(asHijackVia2, asHijackVia, topo.ProviderOf)

	// Historic origins and transits of the Figure-4 sibling prefixes.
	_ = t.Link(tier1[2], 3549, topo.ProviderOf)
	_ = t.Link(tier1[3], 16735, topo.ProviderOf)
	_ = t.Link(3549, 28129, topo.ProviderOf)
	_ = t.Link(16735, 263330, topo.ProviderOf)
	_ = t.Link(asOwnerVia, 19361, topo.ProviderOf)

	// Operator ASes announce the background and legitimate DROP prefixes.
	for i := 0; i < 400; i++ {
		asn := bgp.ASN(64500 + i)
		g.operatorAS = append(g.operatorAS, asn)
		_ = t.Link(transits[i%len(transits)], asn, topo.ProviderOf)
		if i%3 == 0 {
			_ = t.Link(transits[(i+7)%len(transits)], asn, topo.ProviderOf)
		}
	}
	// Attacker ASes inject hijacks and squats.
	for i := 0; i < 24; i++ {
		asn := bgp.ASN(213000 + i)
		g.attackerAS = append(g.attackerAS, asn)
		_ = t.Link(transits[(i*5)%len(transits)], asn, topo.ProviderOf)
	}
	// Defunct ASes are spoofed as origins; they have no links at all.
	for i := 0; i < 16; i++ {
		asn := bgp.ASN(265000 + i)
		g.defunctAS = append(g.defunctAS, asn)
		t.AddAS(asn)
	}

	g.w.Graph = &t

	// Collectors peer with tier-1s and transits.
	pool := append(append([]bgp.ASN{}, tier1...), transits...)
	peerAddr := func(ci, pi int) netx.Addr { return netx.AddrFrom4(198, 51, byte(ci), byte(pi+1)) }
	for ci := 0; ci < g.p.Collectors; ci++ {
		c := routeviews.Collector{
			Name:      fmt.Sprintf("route-views%d", ci+1),
			LocalAS:   6447,
			LocalAddr: netx.AddrFrom4(128, 223, 51, byte(ci+1)),
		}
		for pi := 0; pi < g.p.PeersPerCollector; pi++ {
			c.Peers = append(c.Peers, routeviews.Peer{
				AS:        pool[(ci*g.p.PeersPerCollector+pi)%len(pool)],
				Addr:      peerAddr(ci, pi),
				FullTable: true,
			})
		}
		g.w.Collectors = append(g.w.Collectors, c)
	}
	// The first FilteringPeers peers of the first collectors apply DROP
	// as a route filter.
	for i := 0; i < g.p.FilteringPeers && i < len(g.w.Collectors); i++ {
		c := &g.w.Collectors[i]
		g.w.Truth.FilterPeers = append(g.w.Truth.FilterPeers, FilterPeerTruth{
			Collector: c.Name, PeerAS: c.Peers[0].AS, PeerAddr: c.Peers[0].Addr,
		})
	}
}

// --- address plan ------------------------------------------------------

func (g *gen) buildAddressPlan() error {
	g.multi = make(map[rirstats.RIR]*multiCarver)
	for rir, octets := range rirRegions {
		mc := &multiCarver{}
		for _, o := range octets {
			mc.regions = append(mc.regions, newCarver(netx.PrefixFrom(netx.AddrFrom4(o, 0, 0, 0), 8)))
		}
		g.multi[rir] = mc
	}

	// Free pools: /14 blocks, managed as Available.
	for rir, regionStr := range poolRegions {
		region := netx.MustParsePrefix(regionStr)
		c := newCarver(region)
		for i := 0; i < poolBlocks[rir]; i++ {
			blk, err := c.take(14)
			if err != nil {
				return err
			}
			g.pools[rir] = append(g.pools[rir], blk)
			g.rirManage = append(g.rirManage, manageEv{blk, rir, rirstats.Available})
		}
	}

	// Fig 7 decline: some pool blocks get allocated during the window.
	for _, rir := range rirstats.AllRIRs {
		n := poolAllocations[rir]
		blocks := g.pools[rir]
		for i := 0; i < n && i < len(blocks); i++ {
			// Allocate from the end of the pool so squats (carved from the
			// front) stay in available space.
			blk := blocks[len(blocks)-1-i]
			d := g.day(g.p.Window.First+60, g.p.Window.Last-30)
			g.rirStatus = append(g.rirStatus, statusEv{d, blk, rirstats.Allocated})
			// Newly allocated space goes into use shortly after.
			g.bgpEvents = append(g.bgpEvents, routeviews.Event{
				Day:    d + timex.Day(15+g.rng.Intn(45)),
				Prefix: blk,
				Tail:   []bgp.ASN{g.operatorAS[g.rng.Intn(len(g.operatorAS))]},
			})
		}
	}
	return nil
}

type multiCarver struct {
	regions []*carver
	idx     int
}

func (m *multiCarver) take(bits int) (netx.Prefix, error) {
	for m.idx < len(m.regions) {
		p, err := m.regions[m.idx].take(bits)
		if err == nil {
			return p, nil
		}
		m.idx++
	}
	return netx.Prefix{}, fmt.Errorf("scenario: all regions exhausted carving /%d", bits)
}

// allocate carves a /bits prefix from the RIR's space and registers it as
// an allocated block from day d.
func (g *gen) allocate(rir rirstats.RIR, bits int, d timex.Day) (netx.Prefix, error) {
	p, err := g.multi[rir].take(bits)
	if err != nil {
		return netx.Prefix{}, err
	}
	g.rirManage = append(g.rirManage, manageEv{p, rir, rirstats.Available})
	g.rirStatus = append(g.rirStatus, statusEv{d, p, rirstats.Allocated})
	return p, nil
}

// --- final assembly ----------------------------------------------------

// assemble sorts the accumulated events and materializes every archive.
func (g *gen) assemble() error {
	// RIR timeline.
	sort.Slice(g.rirManage, func(i, j int) bool {
		return g.rirManage[i].p.Compare(g.rirManage[j].p) < 0
	})
	for _, ev := range g.rirManage {
		if err := g.w.RIR.Manage(ev.p, ev.rir, ev.initial); err != nil {
			return err
		}
	}
	sort.SliceStable(g.rirStatus, func(i, j int) bool { return g.rirStatus[i].day < g.rirStatus[j].day })
	for _, ev := range g.rirStatus {
		if err := g.w.RIR.SetStatus(ev.p, ev.day, ev.st); err != nil {
			return err
		}
	}

	// RPKI archive.
	sort.SliceStable(g.roaEvents, func(i, j int) bool { return g.roaEvents[i].day < g.roaEvents[j].day })
	for _, ev := range g.roaEvents {
		var err error
		if ev.revoke {
			err = g.w.RPKI.Revoke(ev.day, ev.roa)
		} else {
			err = g.w.RPKI.Add(ev.day, ev.roa)
		}
		if err != nil {
			return err
		}
	}

	// IRR journal.
	sort.SliceStable(g.irrEvents, func(i, j int) bool { return g.irrEvents[i].day < g.irrEvents[j].day })
	for _, ev := range g.irrEvents {
		var err error
		if ev.del {
			err = g.w.IRR.Del(ev.day, ev.obj)
		} else {
			err = g.w.IRR.Add(ev.day, ev.obj)
		}
		if err != nil {
			return err
		}
	}

	// DROP snapshots: rebuild membership on each day it changes.
	if err := g.assembleDROP(); err != nil {
		return err
	}

	// BGP events -> MRT, with the filtering peers consulting the DROP
	// archive (which is complete by now).
	sort.SliceStable(g.bgpEvents, func(i, j int) bool { return g.bgpEvents[i].Day < g.bgpEvents[j].Day })
	filterSet := make(map[string]bool, len(g.w.Truth.FilterPeers))
	for _, fp := range g.w.Truth.FilterPeers {
		filterSet[fp.Collector+"|"+fp.PeerAddr.String()] = true
	}
	em := &routeviews.Emitter{
		Graph:      g.w.Graph,
		Collectors: g.w.Collectors,
		Filter: func(c *routeviews.Collector, p routeviews.Peer, prefix netx.Prefix, day timex.Day) bool {
			if !filterSet[c.Name+"|"+p.Addr.String()] {
				return false
			}
			return g.w.DROP.ListedAt(prefix, day)
		},
	}
	recs, err := em.Emit(g.bgpEvents, g.p.Window.First)
	if err != nil {
		return err
	}
	g.w.MRT = recs
	return nil
}

func (g *gen) assembleDROP() error {
	days := make(map[timex.Day]bool)
	for d := range g.dropAdds {
		days[d] = true
	}
	for d := range g.dropDels {
		days[d] = true
	}
	ordered := make([]timex.Day, 0, len(days))
	for d := range days {
		ordered = append(ordered, d)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })

	current := make(map[netx.Prefix]string)
	for _, d := range ordered {
		for _, p := range g.dropDels[d] {
			delete(current, p)
		}
		for _, ch := range g.dropAdds[d] {
			current[ch.p] = ch.ref
		}
		entries := make([]drop.Entry, 0, len(current))
		for p, ref := range current {
			entries = append(entries, drop.Entry{Prefix: p, SBLRef: ref})
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].Prefix.Compare(entries[j].Prefix) < 0 })
		if err := g.w.DROP.AddSnapshot(d, entries); err != nil {
			return err
		}
	}
	return nil
}
