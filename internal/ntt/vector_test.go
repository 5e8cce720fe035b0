package ntt

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"ringlwe/internal/zq"
)

// The vector engine's correctness is pinned primarily by the shared
// registry tests (TestEnginesMatchBarrett, TestForwardThreeMatchesForward,
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

	// The AVX2 kernels' gate, 4q ≤ 2¹⁶ and n ≥ 32, admits P1, P2, A1 and
	// q16001 but not q17921; simd=false always builds the portable engine.
	for _, set := range engineTestSets {
		tab := engineTables(t, set.q, set.n)
		want := set.name == "P1" || set.name == "P2" || set.name == "A1" || set.name == "q16001"
		if got := simdAdmits(tab); got != want {
			t.Errorf("simdAdmits(%s) = %v, want %v", set.name, got, want)
		}
		on, err := newVectorEngine(tab, true)
		if err != nil {
			t.Fatal(err)
		}
		off, err := newVectorEngine(tab, false)
		if err != nil {
			t.Fatal(err)
		}
		if (on.simd != nil) != want || off.simd != nil {
			t.Errorf("%s: AVX2 kernels on=%v off=%v, want %v and false", set.name, on.simd != nil, off.simd != nil, want)
		}
	}
	if simdAdmits(ok) {
		t.Error("simdAdmits accepted n = 16")
	}
}

// TestVectorMinimumDimension runs the full differential check at the
// smallest admissible dimensions, where every stride-class kernel handles
// exactly one block — the edge the paper-sized tests never exercise: n=16
// for the portable kernels and n=32 for the AVX2 kernels (one wide stage,
// two 16-coefficient blocks).
func TestVectorMinimumDimension(t *testing.T) {
	for _, n := range []int{16, 32} {
		tab := engineTables(t, 7681, n) // 7681 ≡ 1 (mod 64), so n=32 roots exist
		vec, err := NewVectorEngine(tab)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := NewEngine("barrett", tab)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(int64(n)))
		for trial := 0; trial < 64; trial++ {
			a := randPoly(r, tab)
			got := append(Poly(nil), a...)
			want := append(Poly(nil), a...)
			vec.Forward(got)
			oracle.Forward(want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: Forward mismatch at n=%d", trial, n)
			}
			vec.Inverse(got)
			oracle.Inverse(want)
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, a) {
				t.Fatalf("trial %d: Inverse mismatch at n=%d", trial, n)
			}
			b := randPoly(r, tab)
			dst, scratch := tab.NewPoly(), tab.NewPoly()
			vec.MulInto(dst, a, b, scratch)
			if naive := tab.Naive(a, b); !reflect.DeepEqual(dst, naive) {
				t.Fatalf("trial %d: MulInto disagrees with Naive at n=%d", trial, n)
			}
		}
	}
}

// TestVectorZeroAlloc pins every hot vector-engine operation, under both
// kernels, at zero allocations per call, matching the Shoup engine's
// contract (the CI allocation-regression gate runs -run ZeroAlloc).
func TestVectorZeroAlloc(t *testing.T) {
	tab := manyTestTables(t)
	a := randomPolys(tab, 1, 1)[0]
	batch := randomPolys(tab, 3, 2)
	dst, scratch := tab.NewPoly(), tab.NewPoly()
	for _, simd := range []bool{hasAVX2, false} {
		e, err := newVectorEngine(tab, simd)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range []struct {
			name string
			fn   func()
		}{
			{"Forward", func() { e.Forward(a) }},
			{"Inverse", func() { e.Inverse(a) }},
			{"ForwardThree", func() { e.ForwardThree(batch[0], batch[1], batch[2]) }},
			{"PointwiseMul", func() { e.PointwiseMul(dst, a, batch[0]) }},
			{"MulInto", func() { e.MulInto(dst, a, batch[0], scratch) }},
		} {
			if allocs := testing.AllocsPerRun(20, op.fn); allocs != 0 {
				t.Errorf("simd=%v: %s allocates %.1f/op, want 0", simd, op.name, allocs)
			}
		}
	}
}

// TestVectorConcurrentShared has eight goroutines share one vector engine
// (AVX2-backed on an AVX2 host) through ForwardThree and Inverse, each on
// its own polynomials, and checks every result against barrett. Run under
// -race it also pins that the engine's tables are read-only after
// construction.
func TestVectorConcurrentShared(t *testing.T) {
	tab := manyTestTables(t)
	e, err := NewVectorEngine(tab)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := NewEngine("barrett", tab)
	if err != nil {
		t.Fatal(err)
	}
	const workers, rounds = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				batch := randomPolys(tab, 3, uint64(w*rounds+round+1))
				want := make([]Poly, len(batch))
				for i, p := range batch {
					want[i] = append(Poly(nil), p...)
					oracle.Forward(want[i])
				}
				e.ForwardThree(batch[0], batch[1], batch[2])
				for i := range batch {
					if !reflect.DeepEqual(batch[i], want[i]) {
						t.Errorf("worker %d round %d: ForwardThree poly %d differs from barrett", w, round, i)
						return
					}
					oracle.Inverse(want[i])
					e.Inverse(batch[i])
					if !reflect.DeepEqual(batch[i], want[i]) {
						t.Errorf("worker %d round %d: Inverse poly %d differs from barrett", w, round, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
