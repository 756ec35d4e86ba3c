package netx

import (
	"math/rand"
	"testing"
)

// TestTrieModelConformance drives the trie and a map side by side through
// random insert/delete/get operations and checks full agreement.
func TestTrieModelConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var tr Trie[int]
	model := make(map[Prefix]int)

	randPfx := func() Prefix {
		// Confine to a /12 so collisions are frequent.
		base := AddrFrom4(100, 64, 0, 0)
		return PrefixFrom(base|Addr(rng.Uint32()&0x000FFFFF), 12+rng.Intn(21))
	}

	for op := 0; op < 20000; op++ {
		p := randPfx()
		switch rng.Intn(3) {
		case 0: // insert
			v := rng.Int()
			tr.Insert(p, v)
			model[p] = v
		case 1: // delete
			_, inModel := model[p]
			if got := tr.Delete(p); got != inModel {
				t.Fatalf("op %d: Delete(%v) = %v, model %v", op, p, got, inModel)
			}
			delete(model, p)
		case 2: // get
			want, inModel := model[p]
			got, ok := tr.Get(p)
			if ok != inModel || (ok && got != want) {
				t.Fatalf("op %d: Get(%v) = %v,%v, model %v,%v", op, p, got, ok, want, inModel)
			}
		}
		if tr.Len() != len(model) {
			t.Fatalf("op %d: Len %d != model %d", op, tr.Len(), len(model))
		}
	}

	// Final sweep: walk returns exactly the model's keys.
	count := 0
	tr.Walk(func(p Prefix, v int) bool {
		if want, ok := model[p]; !ok || want != v {
			t.Fatalf("walk: unexpected entry %v=%v", p, v)
		}
		count++
		return true
	})
	if count != len(model) {
		t.Fatalf("walk visited %d, model has %d", count, len(model))
	}
}

// TestMembersCoveredBySorted checks ordering and membership.
func TestMembersCoveredBySorted(t *testing.T) {
	s := sortedSetOf("10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "11.0.0.0/8", "10.200.0.0/16")
	got := s.MembersCoveredBy(MustParsePrefix("10.0.0.0/8"))
	want := []string{"10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "10.200.0.0/16"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i].String() != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}
