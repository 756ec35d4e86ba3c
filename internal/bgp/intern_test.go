package bgp

import (
	"reflect"
	"testing"
)

func TestPathInterner(t *testing.T) {
	var in PathInterner
	p1 := Sequence(64500, 21575, 263692)
	p2 := Sequence(64501, 263692)

	id1 := in.Intern(p1)
	id2 := in.Intern(p2)
	if id1 != 0 || id2 != 1 {
		t.Fatalf("ids not dense: %d, %d", id1, id2)
	}
	// Structural equality, not slice identity.
	if got := in.Intern(Sequence(64500, 21575, 263692)); got != id1 {
		t.Errorf("structurally equal path interned as %d, want %d", got, id1)
	}
	if in.Len() != 2 {
		t.Errorf("Len = %d", in.Len())
	}
	if !reflect.DeepEqual(in.Path(id1), p1) {
		t.Error("Path does not round-trip")
	}
	if got, want := in.String(id1), p1.String(); got != want {
		t.Errorf("String(id1) = %q, want %q", got, want)
	}

	m := in.Meta(id1)
	if m.Origin != 263692 || m.Neighbor != 64500 || m.Transit != 21575 {
		t.Errorf("Meta(id1) = %+v", m)
	}
	if m := in.Meta(id2); m.Transit != 64501 {
		t.Errorf("Meta(id2).Transit = %v", m.Transit)
	}

	// A set segment never contributes a transit hop.
	setPath := ASPath{{Type: SegmentSet, ASNs: []ASN{1, 2}}}
	if m := in.Meta(in.Intern(setPath)); m.Transit != 0 {
		t.Errorf("set-segment Transit = %v, want 0", m.Transit)
	}

	// Segment boundaries are part of the identity: {1,2}+{3} != {1}+{2,3}.
	a := ASPath{{Type: SegmentSequence, ASNs: []ASN{1, 2}}, {Type: SegmentSequence, ASNs: []ASN{3}}}
	b := ASPath{{Type: SegmentSequence, ASNs: []ASN{1}}, {Type: SegmentSequence, ASNs: []ASN{2, 3}}}
	if in.Intern(a) == in.Intern(b) {
		t.Error("different segmentations interned to the same id")
	}
}

func TestPathInternerCopyDiscipline(t *testing.T) {
	var in PathInterner

	// Intern must deep-copy: mutating the caller's storage afterwards
	// cannot corrupt the canonical path.
	mine := Sequence(100, 200)
	id := in.Intern(mine)
	mine[0].ASNs[0] = 999
	if got := in.Path(id)[0].ASNs[0]; got != 100 {
		t.Errorf("canonical path corrupted by caller mutation: %v", got)
	}

	// InternShared adopts the caller's storage as canonical.
	shared := Sequence(300, 400)
	ids := in.InternShared(shared)
	if &in.Path(ids)[0].ASNs[0] != &shared[0].ASNs[0] {
		t.Error("InternShared cloned instead of adopting")
	}
	// A hit never re-adopts: the first canonical stays.
	again := Sequence(300, 400)
	if got := in.InternShared(again); got != ids {
		t.Errorf("InternShared re-keyed an existing path: %d != %d", got, ids)
	}
	if &in.Path(ids)[0].ASNs[0] == &again[0].ASNs[0] {
		t.Error("hit replaced the canonical storage")
	}
}

// TestFrozenPathInternerMatchesSource pins FrozenPathInterner against
// the interner its paths came from: same Len, and Path, Meta and String
// answer identically for every id — String included, although the
// frozen interner renders nothing until it is first asked.
func TestFrozenPathInternerMatchesSource(t *testing.T) {
	var in PathInterner
	for _, p := range []ASPath{
		nil,
		Sequence(64500, 21575, 263692),
		Sequence(64501),
		{{Type: SegmentSet, ASNs: []ASN{1, 2}}},
		{{Type: SegmentSequence, ASNs: []ASN{7, 8}}, {Type: SegmentSet, ASNs: []ASN{9}}},
	} {
		in.Intern(p)
	}
	fz := FrozenPathInterner(in.Paths())
	if fz.strs != nil {
		t.Fatalf("frozen interner rendered %d strings before any String call", len(fz.strs))
	}
	if fz.Len() != in.Len() {
		t.Fatalf("Len = %d, want %d", fz.Len(), in.Len())
	}
	for id := PathID(0); int(id) < in.Len(); id++ {
		if !reflect.DeepEqual(fz.Path(id), in.Path(id)) {
			t.Errorf("Path(%d) = %v, want %v", id, fz.Path(id), in.Path(id))
		}
		if fz.Meta(id) != in.Meta(id) {
			t.Errorf("Meta(%d) = %+v, want %+v", id, fz.Meta(id), in.Meta(id))
		}
		if got, want := fz.String(id), in.String(id); got != want {
			t.Errorf("String(%d) = %q, want %q", id, got, want)
		}
	}
	// A path interned after the first String renders too.
	late := Sequence(65000, 65001)
	if got, want := in.String(in.Intern(late)), late.String(); got != want {
		t.Errorf("String(late) = %q, want %q", got, want)
	}
}
