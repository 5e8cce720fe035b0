package zq

import (
	"testing"
)

var shoupModuli = []uint32{7681, 12289}

// TestMulShoupLazyBound is the bound proof for the lazy product: for every
// twiddle w (exhaustive over [0, q) for both paper moduli) and adversarial
// multiplicands a — including the largest uint32, the lazy extremes and a
// pseudo-random sweep — the result is congruent to a·w (mod q) and stays
// strictly below 2q. The analytic argument: with w' = ⌊wβ/q⌋ and
// t = ⌊aw'/β⌋, the remainder aw − tq lies in [0, q(1 + a/β)) ⊂ [0, 2q) for
// any a < β; this test checks the implementation realizes it.
func TestMulShoupLazyBound(t *testing.T) {
	for _, q := range shoupModuli {
		m := mustModulus(q)
		twoQ := 2 * q
		probes := []uint32{0, 1, q - 1, q, twoQ - 1, 1 << 16, ^uint32(0), ^uint32(0) - q + 1}
		rnd := uint32(0x9E3779B9)
		for w := uint32(0); w < q; w++ {
			ws := m.Shoup(w)
			for _, a := range probes {
				r := m.MulShoupLazy(a, w, ws)
				if r >= twoQ {
					t.Fatalf("q=%d: MulShoupLazy(%d, %d) = %d ≥ 2q", q, a, w, r)
				}
				want := uint32(uint64(a) % uint64(q) * uint64(w) % uint64(q))
				if r%q != want {
					t.Fatalf("q=%d: MulShoupLazy(%d, %d) ≡ %d, want %d", q, a, w, r%q, want)
				}
			}
			// One extra pseudo-random multiplicand per twiddle keeps the
			// sweep dense without an O(q·2³²) loop.
			rnd = rnd*1664525 + 1013904223
			if r := m.MulShoupLazy(rnd, w, ws); r >= twoQ || r%q != m.Mul(rnd%q, w) {
				t.Fatalf("q=%d: MulShoupLazy(%d, %d) = %d out of contract", q, rnd, w, r)
			}
		}
	}
}

// MulShoup (normalized) must agree with the Barrett Mul exactly.
func TestMulShoupMatchesBarrett(t *testing.T) {
	for _, q := range shoupModuli {
		m := mustModulus(q)
		for w := uint32(0); w < q; w += 7 {
			ws := m.Shoup(w)
			for a := uint32(0); a < q; a += 131 {
				if got, want := m.MulShoup(a, w, ws), m.Mul(a, w); got != want {
					t.Fatalf("q=%d: MulShoup(%d, %d) = %d, want %d", q, a, w, got, want)
				}
			}
		}
	}
}

// The Shoup companion of a non-canonical value is a programming error.
func TestShoupPanicsOutOfRange(t *testing.T) {
	m := mustModulus(7681)
	defer func() {
		if recover() == nil {
			t.Fatal("Shoup(q) did not panic")
		}
	}()
	m.Shoup(m.Q)
}
