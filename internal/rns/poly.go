package rns

import (
	"math/big"

	"ringlwe/internal/ntt"
)

// Poly is a polynomial in RNS representation: k stride-contiguous residue
// rows of N coefficients in one flat slice, row i at [i·N, (i+1)·N). Row i
// holds the polynomial's coefficients reduced mod qᵢ, each row
// independently transformable by channel i's engine. The flat layout means
// a Poly is memory-compatible with ntt.Poly of length k·N, so the core
// scheme's existing key/ciphertext containers carry RNS polynomials
// without new struct shapes — only the interpretation (and the Runner
// looping over the rows) changes.
type Poly []uint32

// NewPoly allocates a zero polynomial for the basis.
func (b *Basis) NewPoly() Poly { return make(Poly, b.K*b.N) }

// Row returns channel i's residue row as a single-modulus ntt.Poly view.
func (b *Basis) Row(p Poly, i int) ntt.Poly {
	return ntt.Poly(p[i*b.N : (i+1)*b.N])
}

// Decompose writes the residue decomposition of the big-coefficient
// polynomial coeffs (length N, entries reduced mod q) into p. Oracle/test
// path — allocates.
func (b *Basis) Decompose(p Poly, coeffs []*big.Int) {
	for j, v := range coeffs {
		b.DecomposeCoeff(p, j, v)
	}
}

// Reconstruct returns every coefficient of p as a big integer via the hot
// path's Uint128 CRT. Oracle/test path — allocates.
func (b *Basis) Reconstruct(p Poly) []*big.Int {
	out := make([]*big.Int, b.N)
	for j := range out {
		out[j] = b.CoeffBig(p, j)
	}
	return out
}
