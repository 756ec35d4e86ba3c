package netx

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseAddr(t *testing.T) {
	cases := []struct {
		in   string
		want Addr
		ok   bool
	}{
		{"0.0.0.0", 0, true},
		{"255.255.255.255", 0xFFFFFFFF, true},
		{"192.0.2.1", AddrFrom4(192, 0, 2, 1), true},
		{"10.0.0.0", AddrFrom4(10, 0, 0, 0), true},
		{"256.0.0.0", 0, false},
		{"1.2.3", 0, false},
		{"1.2.3.4.5", 0, false},
		{"", 0, false},
		{"a.b.c.d", 0, false},
		{"1..2.3", 0, false},
		{"1.2.3.", 0, false},
	}
	for _, c := range cases {
		got, err := ParseAddr(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseAddr(%q) err=%v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseAddr(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestAddrStringRoundTrip(t *testing.T) {
	f := func(a uint32) bool {
		addr := Addr(a)
		back, err := ParseAddr(addr.String())
		return err == nil && back == addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParsePrefix(t *testing.T) {
	cases := []struct {
		in string
		ok bool
	}{
		{"192.0.2.0/24", true},
		{"0.0.0.0/0", true},
		{"10.0.0.0/8", true},
		{"192.0.2.1/32", true},
		{"192.0.2.1/24", false}, // host bits set
		{"192.0.2.0/33", false},
		{"192.0.2.0/-1", false},
		{"192.0.2.0/+24", false}, // the length is bare digits
		{"0.0.0.0/-0", false},
		{"192.0.2.0", false},
		{"bogus/24", false},
		{"192.0.2.0/abc", false},
	}
	for _, c := range cases {
		p, err := ParsePrefix(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParsePrefix(%q) err=%v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && p.String() != c.in {
			t.Errorf("ParsePrefix(%q).String() = %q", c.in, p.String())
		}
	}
}

func TestPrefixContains(t *testing.T) {
	p := MustParsePrefix("192.0.2.0/24")
	if !p.Contains(AddrFrom4(192, 0, 2, 0)) || !p.Contains(AddrFrom4(192, 0, 2, 255)) {
		t.Error("prefix should contain its own range endpoints")
	}
	if p.Contains(AddrFrom4(192, 0, 3, 0)) || p.Contains(AddrFrom4(192, 0, 1, 255)) {
		t.Error("prefix should not contain adjacent addresses")
	}
	all := MustParsePrefix("0.0.0.0/0")
	if !all.Contains(0) || !all.Contains(0xFFFFFFFF) {
		t.Error("/0 should contain everything")
	}
}

func TestPrefixCovers(t *testing.T) {
	cases := []struct {
		p, q string
		want bool
	}{
		{"10.0.0.0/8", "10.1.0.0/16", true},
		{"10.0.0.0/8", "10.0.0.0/8", true},
		{"10.1.0.0/16", "10.0.0.0/8", false},
		{"10.0.0.0/8", "11.0.0.0/16", false},
		{"0.0.0.0/0", "203.0.113.0/24", true},
		{"192.0.2.0/25", "192.0.2.128/25", false},
	}
	for _, c := range cases {
		p, q := MustParsePrefix(c.p), MustParsePrefix(c.q)
		if got := p.Covers(q); got != c.want {
			t.Errorf("%s.Covers(%s) = %v, want %v", c.p, c.q, got, c.want)
		}
	}
}

func TestPrefixOverlaps(t *testing.T) {
	a := MustParsePrefix("10.0.0.0/8")
	b := MustParsePrefix("10.5.0.0/16")
	c := MustParsePrefix("11.0.0.0/8")
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("nested prefixes overlap")
	}
	if a.Overlaps(c) {
		t.Error("disjoint prefixes do not overlap")
	}
}

func TestPrefixHalvesParent(t *testing.T) {
	p := MustParsePrefix("192.0.2.0/24")
	lo, hi := p.Halves()
	if lo.String() != "192.0.2.0/25" || hi.String() != "192.0.2.128/25" {
		t.Errorf("Halves = %v, %v", lo, hi)
	}
	if lo.Parent() != p || hi.Parent() != p {
		t.Error("Parent of halves should be original")
	}
}

func TestPrefixHalvesPanicsOnHost(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic splitting a /32")
		}
	}()
	MustParsePrefix("192.0.2.1/32").Halves()
}

func TestPrefixNumAddrs(t *testing.T) {
	cases := []struct {
		in   string
		want uint64
	}{
		{"0.0.0.0/0", 1 << 32},
		{"10.0.0.0/8", 1 << 24},
		{"192.0.2.0/24", 256},
		{"192.0.2.1/32", 1},
	}
	for _, c := range cases {
		if got := MustParsePrefix(c.in).NumAddrs(); got != c.want {
			t.Errorf("%s NumAddrs = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestPrefixFirstLastAddr(t *testing.T) {
	p := MustParsePrefix("192.0.2.0/24")
	if p.FirstAddr().String() != "192.0.2.0" || p.LastAddr().String() != "192.0.2.255" {
		t.Errorf("range = %v..%v", p.FirstAddr(), p.LastAddr())
	}
}

func TestPrefixCompareAndSort(t *testing.T) {
	ps := []Prefix{
		MustParsePrefix("192.0.2.0/25"),
		MustParsePrefix("10.0.0.0/8"),
		MustParsePrefix("192.0.2.0/24"),
		MustParsePrefix("10.0.0.0/16"),
	}
	SortPrefixes(ps)
	want := []string{"10.0.0.0/8", "10.0.0.0/16", "192.0.2.0/24", "192.0.2.0/25"}
	for i, w := range want {
		if ps[i].String() != w {
			t.Fatalf("sorted[%d] = %s, want %s", i, ps[i], w)
		}
	}
	if ps[0].Compare(ps[0]) != 0 {
		t.Error("Compare with self should be 0")
	}
}

func TestSlashEquivalents(t *testing.T) {
	if got := SlashEquivalents(1<<24, 8); got != 1.0 {
		t.Errorf("one /8 = %v", got)
	}
	if got := SlashEquivalents(3<<23, 8); got != 1.5 {
		t.Errorf("1.5 /8 = %v", got)
	}
}

func TestPrefixStringRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		bits := rng.Intn(33)
		p := PrefixFrom(Addr(rng.Uint32()), bits)
		back, err := ParsePrefix(p.String())
		if err != nil || back != p {
			t.Fatalf("round trip %v failed: %v %v", p, back, err)
		}
	}
}

func TestCoversIsPartialOrder(t *testing.T) {
	// Property: Covers is reflexive and antisymmetric (on distinct prefixes,
	// mutual covering is impossible).
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		p := PrefixFrom(Addr(rng.Uint32()), rng.Intn(33))
		q := PrefixFrom(Addr(rng.Uint32()), rng.Intn(33))
		if !p.Covers(p) {
			t.Fatalf("%v should cover itself", p)
		}
		if p != q && p.Covers(q) && q.Covers(p) {
			t.Fatalf("distinct %v and %v mutually cover", p, q)
		}
	}
}

func TestTextMarshaling(t *testing.T) {
	type doc struct {
		Addr   Addr           `json:"addr"`
		Prefix Prefix         `json:"prefix"`
		ByPfx  map[Prefix]int `json:"by_prefix"`
	}
	in := doc{
		Addr:   AddrFrom4(192, 0, 2, 1),
		Prefix: MustParsePrefix("132.255.0.0/22"),
		ByPfx:  map[Prefix]int{MustParsePrefix("10.0.0.0/8"): 7},
	}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"132.255.0.0/22"`) || !strings.Contains(string(raw), `"10.0.0.0/8"`) {
		t.Errorf("marshal = %s", raw)
	}
	var out doc
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Addr != in.Addr || out.Prefix != in.Prefix || out.ByPfx[MustParsePrefix("10.0.0.0/8")] != 7 {
		t.Errorf("round trip: %+v", out)
	}
	if err := json.Unmarshal([]byte(`{"prefix":"garbage"}`), &out); err == nil {
		t.Error("bad prefix should fail to unmarshal")
	}
}
