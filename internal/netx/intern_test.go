package netx

import "testing"

func TestInterner(t *testing.T) {
	var in Interner
	a := MustParsePrefix("192.0.2.0/24")
	b := MustParsePrefix("10.0.0.0/8")

	if in.Len() != 0 {
		t.Fatalf("zero-value Len = %d", in.Len())
	}

	ida := in.Intern(a)
	idb := in.Intern(b)
	if ida != 0 || idb != 1 {
		t.Fatalf("ids not dense first-sight order: %d, %d", ida, idb)
	}
	if got := in.Intern(a); got != ida {
		t.Errorf("re-intern returned %d, want %d", got, ida)
	}
	if in.Len() != 2 {
		t.Errorf("Len = %d, want 2", in.Len())
	}
	if in.At(ida) != a || in.At(idb) != b {
		t.Error("At does not round-trip")
	}
	// Same address, different mask length = distinct prefixes.
	c := MustParsePrefix("192.0.2.0/25")
	if in.Intern(c) != 2 {
		t.Error("prefix length not part of identity")
	}
}
