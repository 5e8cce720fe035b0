package ntt

import (
	"math/rand"
	"reflect"
	"testing"

	"ringlwe/internal/zq"
)

// The vector engine's correctness is pinned primarily by the shared
// registry tests (TestEnginesMatchBarrett, TestForwardManyMatchesForward,
// TestEngineOutputsCanonical, FuzzEngineMulDifferential), which iterate
// every registered backend. This file covers what those cannot: the
// construction gates, the default-resolution rule built on them, and the
// backend-specific
// performance contracts (zero allocations, lane-block dimensions).

func TestVectorEngineRegistered(t *testing.T) {
	found := false
	for _, n := range EngineNames() {
		if n == "vector" {
			found = true
		}
	}
	if !found {
		t.Fatalf("vector engine not registered (have %v)", EngineNames())
	}
}

// TestVectorEngineGates pins the construction preconditions: the bound
// lemma's modulus gate (4q ≤ 2³¹) and the minimum dimension that
// guarantees a full 8-lane block in every stride class.
func TestVectorEngineGates(t *testing.T) {
	// 536871001 is the first prime above 2²⁹ with q ≡ 1 (mod 8): tables
	// construct, but 4q exceeds 2³¹, so the sign-bit folds would be
	// unsound and engine construction must refuse.
	mBig, err := zq.NewModulus(536871001)
	if err != nil {
		t.Fatal(err)
	}
	tBig, err := NewTables(mBig, 4)
	if err == nil {
		if _, err := NewVectorEngine(tBig); err == nil {
			t.Error("vector engine accepted a modulus beyond the bound lemma")
		}
	}

	m, err := zq.NewModulus(7681)
	if err != nil {
		t.Fatal(err)
	}
	small, err := NewTables(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewVectorEngine(small); err == nil {
		t.Error("vector engine accepted n = 8 (< one lane block per stride class)")
	}
	ok, err := NewTables(m, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewVectorEngine(ok); err != nil {
		t.Errorf("vector engine rejected n = 16: %v", err)
	}

	// The default rule follows the gates: every table accepted → vector,
	// any table refused → shoup; explicit names pass through untouched.
	for _, c := range []struct {
		name string
		tabs []*Tables
		want string
	}{
		{"", []*Tables{ok}, "vector"},
		{"auto", []*Tables{ok, ok}, "vector"},
		{"", []*Tables{small}, "shoup"},
		{"auto", []*Tables{ok, small}, "shoup"},
		{"vector", []*Tables{small}, "vector"},
		{"barrett", []*Tables{ok}, "barrett"},
	} {
		if got := ResolveEngine(c.name, c.tabs...); got != c.want {
			t.Errorf("ResolveEngine(%q, %d tables) = %q, want %q", c.name, len(c.tabs), got, c.want)
		}
	}
	if tBig != nil {
		if got := ResolveEngine("", tBig); got != "shoup" {
			t.Errorf("ResolveEngine over q=%d = %q, want shoup", mBig.Q, got)
		}
	}
}

// TestVectorMinimumDimension runs the full differential check at the
// smallest admissible dimension, where every stride-class kernel handles
// exactly one block — the edge the paper-sized tests never exercise.
func TestVectorMinimumDimension(t *testing.T) {
	m, err := zq.NewModulus(7681) // 7681 ≡ 1 (mod 32), so n=16 roots exist
	if err != nil {
		t.Fatal(err)
	}
	tab, err := NewTables(m, 16)
	if err != nil {
		t.Fatal(err)
	}
	vec, err := NewVectorEngine(tab)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := NewEngine("barrett", tab)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(16))
	for trial := 0; trial < 64; trial++ {
		a := randPoly(r, tab)
		got := append(Poly(nil), a...)
		want := append(Poly(nil), a...)
		vec.Forward(got)
		oracle.Forward(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Forward mismatch at n=16", trial)
		}
		vec.Inverse(got)
		oracle.Inverse(want)
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, a) {
			t.Fatalf("trial %d: Inverse mismatch at n=16", trial)
		}
		b := randPoly(r, tab)
		dst, scratch := tab.NewPoly(), tab.NewPoly()
		vec.MulInto(dst, a, b, scratch)
		if naive := tab.Naive(a, b); !reflect.DeepEqual(dst, naive) {
			t.Fatalf("trial %d: MulInto disagrees with Naive at n=16", trial)
		}
	}
}

// TestVectorZeroAlloc pins every hot vector-engine operation at zero
// allocations per call, matching the Shoup engine's contract (the CI
// allocation-regression gate runs -run ZeroAlloc).
func TestVectorZeroAlloc(t *testing.T) {
	tab := manyTestTables(t)
	e, err := NewEngine("vector", tab)
	if err != nil {
		t.Fatal(err)
	}
	a := randomPolys(tab, 1, 1)[0]
	batch := randomPolys(tab, 3, 2)
	dst, scratch := tab.NewPoly(), tab.NewPoly()
	for _, op := range []struct {
		name string
		fn   func()
	}{
		{"Forward", func() { e.Forward(a) }},
		{"Inverse", func() { e.Inverse(a) }},
		{"ForwardMany", func() { e.ForwardMany(batch) }},
		{"MulInto", func() { e.MulInto(dst, a, batch[0], scratch) }},
	} {
		if allocs := testing.AllocsPerRun(20, op.fn); allocs != 0 {
			t.Errorf("%s allocates %.1f/op, want 0", op.name, allocs)
		}
	}
}
