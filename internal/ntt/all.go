package ntt

import "fmt"

// Residue-channel loops for RNS polynomials. An RNS polynomial over k
// word-sized moduli is stored flat — k stride-contiguous rows of n
// coefficients in one []uint32 — and every ring operation is k independent
// single-modulus operations, one per residue channel. A Runner holds one
// Engine per channel and runs each operation as a plain loop over the
// rows on the calling goroutine; k == 1 (the one-channel paper sets) is a
// single engine call.

// Runner applies ring operations across the residue channels of flat RNS
// polynomials (length k·n, row i at [i·n, (i+1)·n)). It is immutable after
// construction and, like the engines it holds, safe for concurrent use, so
// one Runner serves every goroutine of a scheme.
type Runner struct {
	engs []Engine
	n    int
}

// NewRunner builds a Runner over one engine per residue channel. All
// engines must share the same ring degree n.
func NewRunner(engs []Engine) (*Runner, error) {
	if len(engs) == 0 {
		return nil, fmt.Errorf("ntt: Runner needs at least one engine")
	}
	n := engs[0].Tables().N
	for i, e := range engs {
		if e.Tables().N != n {
			return nil, fmt.Errorf("ntt: Runner channel %d has n=%d, want %d", i, e.Tables().N, n)
		}
	}
	return &Runner{engs: engs, n: n}, nil
}

// Engines returns the per-channel engines (shared, immutable).
func (r *Runner) Engines() []Engine { return r.engs }

// row returns channel i's view of a flat residue polynomial.
func (r *Runner) row(a Poly, i int) Poly { return a[i*r.n : (i+1)*r.n] }

// ForwardAll transforms every residue row of a in place.
func (r *Runner) ForwardAll(a Poly) {
	for i, e := range r.engs {
		e.Forward(r.row(a, i))
	}
}

// InverseAll inverse-transforms every residue row of a in place.
func (r *Runner) InverseAll(a Poly) {
	for i, e := range r.engs {
		e.Inverse(r.row(a, i))
	}
}

// ForwardThreeAll applies each channel's fused three-way forward transform
// to the rows of a, b, c — the RNS form of the paper's parallel-3 NTT on
// the encryption hot path.
func (r *Runner) ForwardThreeAll(a, b, c Poly) {
	for i, e := range r.engs {
		e.ForwardThree(r.row(a, i), r.row(b, i), r.row(c, i))
	}
}

// MulAll sets c = a ∘ b per channel (transform-domain pointwise product).
func (r *Runner) MulAll(c, a, b Poly) {
	for i, e := range r.engs {
		e.PointwiseMul(r.row(c, i), r.row(a, i), r.row(b, i))
	}
}

// AddAll sets c = a + b per channel.
func (r *Runner) AddAll(c, a, b Poly) {
	for i, e := range r.engs {
		e.Add(r.row(c, i), r.row(a, i), r.row(b, i))
	}
}

// SubAll sets c = a - b per channel.
func (r *Runner) SubAll(c, a, b Poly) {
	for i, e := range r.engs {
		e.Sub(r.row(c, i), r.row(a, i), r.row(b, i))
	}
}

// ScalarMulAll sets c = s·a for a word-sized scalar s; each channel's
// engine reduces s mod its own prime, so row i is scaled by s mod qᵢ.
func (r *Runner) ScalarMulAll(c, a Poly, s uint32) {
	for i, e := range r.engs {
		e.ScalarMul(r.row(c, i), r.row(a, i), s)
	}
}
