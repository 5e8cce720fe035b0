package core

import "ringlwe/internal/ntt"

// Residue layout. Every parameter set runs over an RNS basis: the paper
// sets P1/P2 and A1 are one-channel bases over their single prime, B1 has
// three 29-bit channels. A polynomial is stored flat — K stride-contiguous
// residue rows of N coefficients, row i reduced mod qᵢ — and each ring
// operation is K independent single-modulus operations, one per channel,
// run in turn by the scheme's one ntt.Runner (one engine call for K = 1).
// Sampling, encoding, serialization and range checks all walk the rows;
// the one place the channel count steers the code is decoding, where
// K = 1 keeps the word-sized threshold test and K > 1 CRT-reconstructs
// each coefficient in a 128-bit accumulator.

// IsRNS reports whether the parameter set has more than one residue
// channel, i.e. a composite modulus that overflows a word.
func (p *Params) IsRNS() bool { return p.K() > 1 }

// K returns the number of residue channels (1 for P1, P2 and A1).
func (p *Params) K() int { return p.Basis.K }

// polyLen is the coefficient count of one stored polynomial: K residue
// rows of N.
func (p *Params) polyLen() int { return p.K() * p.N }

// newPoly allocates a zero polynomial with this set's storage length.
func (p *Params) newPoly() ntt.Poly { return make(ntt.Poly, p.polyLen()) }

// row returns residue row i of a flat polynomial.
func (p *Params) row(a ntt.Poly, i int) ntt.Poly { return a[i*p.N : (i+1)*p.N] }

// rowBytes is the packed size of residue row i: N coefficients at channel
// i's width, byte-aligned per row (N is a multiple of 8, so rows pack
// exactly).
func (p *Params) rowBytes(i int) int {
	return (p.N*int(p.Basis.Mods[i].BitLen()) + 7) / 8
}

// crtDecodeInto is the K > 1 decoder: it CRT-reconstructs each coefficient
// and applies the threshold test 4c ∈ (q, 3q) in the 128-bit accumulator.
// Only the final DecodeCoeff test is borrow-based. ReconstructCoeff is not
// branch-free: Reduce's conditional subtraction (zq.go) and the fold loop
// that subtracts q until it borrows (basis.go) jump on the secret
// pre-decoding coefficient, so B1 decryption is variable-time under every
// profile until the fixed-point CRT decode replaces it.
func crtDecodeInto(dst []byte, p *Params, m ntt.Poly) {
	b := p.Basis
	clear(dst)
	for j := 0; j < p.N; j++ {
		bit := b.DecodeCoeff(b.ReconstructCoeff(m, j))
		dst[j/8] |= bit << (j % 8)
	}
}
