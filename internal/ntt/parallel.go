package ntt

// This file implements the paper's parallel-3 NTT (§III-D): during
// encryption three forward transforms run back to back over three different
// coefficient sets, so the twiddle-factor bookkeeping and loop overhead can
// be shared by processing all three polynomials inside the same inner loop.
// The paper stores the three sets at consecutive memory regions separated by
// n/2 word addresses so a single base pointer suffices; here the three
// slices play that role, and the cycle model (internal/m4) accounts for the
// derived addressing.

// ForwardThree applies Forward to a, b and c in a single fused pass. The
// result is identical to three separate Forward calls; the fusion pays the
// per-group twiddle lookup and the loop-index updates once instead of three
// times (the paper measures this at an 8.3% saving over 3×NTT).
func (t *Tables) ForwardThree(a, b, c Poly) {
	t.ForwardMany([]Poly{a, b, c})
}

// ForwardMany applies Forward to every polynomial in a single fused pass —
// the parallel-3 NTT at any batch width, ForwardThree being its width-3
// case. The result is identical to len(polys) separate Forward calls. The
// slice is only iterated, so a stack-built argument does not allocate.
func (t *Tables) ForwardMany(polys []Poly) {
	for _, p := range polys {
		if len(p) != t.N {
			panic("ntt: ForwardMany length mismatch")
		}
	}
	m := t.M
	step := t.N
	for half := 1; half < t.N; half <<= 1 {
		step >>= 1
		for i := 0; i < half; i++ {
			j1 := 2 * i * step
			s := t.PsiRev[half+i]
			for j := j1; j < j1+step; j++ {
				for _, p := range polys {
					u := p[j]
					v := m.Mul(p[j+step], s)
					p[j] = m.Add(u, v)
					p[j+step] = m.Sub(u, v)
				}
			}
		}
	}
}
