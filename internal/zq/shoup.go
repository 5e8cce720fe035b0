package zq

// Shoup multiplication and lazy-domain arithmetic. A Shoup companion
// w' = ⌊w·2³²/q⌋ of a fixed multiplicand w lets a·w mod q be computed with
// one 32×32→64 high product, two 32-bit low products and at most one
// conditional subtraction — no Barrett chain — which is exactly what an NTT
// wants: every butterfly multiplies by a *precomputed* twiddle, so the
// companion is computed once per table entry and amortized over every
// transform (Harvey, "Faster arithmetic for number-theoretic transforms").
//
// The lazy domain: values live in [0, 2q) instead of [0, q). MulShoupLazy
// returns a lazy value; the vector NTT engine keeps its butterflies in that
// domain and folds back to canonical. With the paper's moduli (q < 2¹⁴) the
// lazy bound 2q < 2¹⁵ leaves ample 32-bit headroom; the bound proof lives
// in shoup_test.go. The Shoup radix is β = 2³²: companions are ⌊w·β/q⌋.

// Shoup returns the Shoup companion ⌊w·2³²/q⌋ of the canonical residue w,
// for use as the wShoup argument of MulShoupLazy with the same w.
func (m *Modulus) Shoup(w uint32) uint32 {
	if w >= m.Q {
		panic("zq: Shoup companion of non-canonical value")
	}
	return uint32((uint64(w) << 32) / uint64(m.Q))
}

// MulShoupLazy returns a value congruent to a·w (mod q) in the lazy range
// [0, 2q). w must be canonical and wShoup its Shoup companion; a may be ANY
// uint32 — canonical, lazy, or wider — because the quotient estimate
// t = ⌊a·w'/β⌋ undershoots ⌊a·w/q⌋ by at most one for every a < β
// (proof in TestMulShoupLazyBound). The subtraction a·w − t·q is taken
// modulo 2³², which is exact since the true remainder is below 2q < 2³².
func (m *Modulus) MulShoupLazy(a, w, wShoup uint32) uint32 {
	t := uint32((uint64(a) * uint64(wShoup)) >> 32)
	return a*w - t*m.Q
}

// MulShoup is MulShoupLazy with the final conditional subtraction, returning
// the canonical residue a·w mod q.
func (m *Modulus) MulShoup(a, w, wShoup uint32) uint32 {
	r := m.MulShoupLazy(a, w, wShoup)
	if r >= m.Q {
		r -= m.Q
	}
	return r
}
