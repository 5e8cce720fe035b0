// Package ntt implements the negative-wrapped (negacyclic) number theoretic
// transform used for polynomial multiplication in Z_q[x]/(x^n + 1), following
// the DATE 2015 paper "Efficient Software Implementation of Ring-LWE
// Encryption" (Algorithms 3 and 4) and its CHES 2014 antecedent.
//
// The transforms provided:
//
//   - Naive: the O(n²) schoolbook negacyclic convolution, used as the
//     correctness oracle in tests.
//   - Forward/Inverse: the merged-ψ iterative NTT (Cooley-Tukey butterflies
//     forward, Gentleman-Sande inverse). This is the mathematical content of
//     the paper's Algorithm 3: the 2n-th root ψ is folded into the twiddle
//     factors, so no separate pre-scaling pass by powers of ψ is needed.
//   - ForwardAlg3: a line-by-line transcription of the paper's Algorithm 3
//     (explicit bit-reversal followed by butterflies whose twiddle starts at
//     √ω_m), kept for fidelity and cross-checked against Forward.
//   - PackedPoly (packed.go): two 16-bit coefficients per 32-bit word, the
//     layout of the paper's Algorithm 4; internal/m4 runs and costs the
//     packed kernels over it.
//   - ForwardThree (parallel.go): the paper's parallel-3 NTT, transforming
//     the three encryption-side polynomials in one pass so that twiddle
//     updates and loop overhead are paid once instead of three times.
//
// Transform-domain layout: Forward maps a polynomial in natural coefficient
// order to its spectrum in bit-reversed order; Inverse expects bit-reversed
// input and returns natural order. Pointwise multiplication commutes with
// that fixed permutation, so the scheme never needs to reorder.
package ntt

import (
	"fmt"

	"ringlwe/internal/zq"
)

// Poly is a polynomial over Z_q in coefficient (or spectral) representation;
// element i is the coefficient of x^i. All values are canonical residues.
type Poly []uint32

// Tables holds every precomputed constant needed to transform polynomials of
// one fixed degree over one fixed modulus. Construct with NewTables. Tables
// are immutable after construction and safe for concurrent use.
type Tables struct {
	M    *zq.Modulus
	N    int
	LogN uint

	// Omega is a primitive n-th root of unity; Psi is a primitive 2n-th root
	// with Psi² = Omega (so Psi^n = -1, the negacyclic sign).
	Omega, Psi uint32

	// PsiRev[i] = Psi^bitrev(i) drives the forward Cooley-Tukey butterflies;
	// PsiInvRev[i] = Psi^-bitrev(i) drives the inverse Gentleman-Sande ones.
	PsiRev    []uint32
	PsiInvRev []uint32

	// NInv is n⁻¹ mod q, applied as the final inverse-transform scaling.
	NInv uint32

	// StageRoots[s] holds (ω_m, √ω_m) for stage s (m = 2^(s+1)); this is the
	// paper's `primitive_root` lookup table for Algorithm 3/4, which avoids
	// computing twiddle bases inside the transform.
	StageRoots [][2]uint32
}

// NewTables precomputes transform constants for dimension n over modulus m.
// n must be a power of two ≥ 4 and q ≡ 1 (mod 2n) must hold (both paper
// parameter sets satisfy this: 7681 ≡ 1 mod 512, 12289 ≡ 1 mod 1024).
func NewTables(m *zq.Modulus, n int) (*Tables, error) {
	if n < 4 || n&(n-1) != 0 {
		return nil, fmt.Errorf("ntt: dimension %d must be a power of two ≥ 4", n)
	}
	omega, psi, err := m.NTTRoots(n)
	if err != nil {
		return nil, fmt.Errorf("ntt: %w", err)
	}
	logN := uint(0)
	for 1<<logN < n {
		logN++
	}
	t := &Tables{
		M: m, N: n, LogN: logN,
		Omega: omega, Psi: psi,
		PsiRev:    make([]uint32, n),
		PsiInvRev: make([]uint32, n),
		NInv:      m.Inv(uint32(n)),
	}
	psiInv := m.Inv(psi)
	pow, powInv := uint32(1), uint32(1)
	fwd := make([]uint32, n) // psi^i
	inv := make([]uint32, n) // psi^-i
	for i := 0; i < n; i++ {
		fwd[i], inv[i] = pow, powInv
		pow = m.Mul(pow, psi)
		powInv = m.Mul(powInv, psiInv)
	}
	for i := 0; i < n; i++ {
		r := zq.BitReverse(uint32(i), logN)
		t.PsiRev[i] = fwd[r]
		t.PsiInvRev[i] = inv[r]
	}
	for mm := 2; mm <= n; mm <<= 1 {
		wm := m.Exp(omega, uint64(n/mm)) // primitive m-th root
		w0 := m.Exp(psi, uint64(n/mm))   // √ω_m, a primitive 2m-th root
		t.StageRoots = append(t.StageRoots, [2]uint32{wm, w0})
	}
	return t, nil
}

// Forward transforms a in place: natural coefficient order in, bit-reversed
// spectral order out. This is the merged-ψ Cooley-Tukey NTT; it performs
// (n/2)·log₂n butterflies, each costing one modular multiplication.
func (t *Tables) Forward(a Poly) {
	if len(a) != t.N {
		panic("ntt: Forward length mismatch")
	}
	m := t.M
	step := t.N
	for half := 1; half < t.N; half <<= 1 {
		step >>= 1
		for i := 0; i < half; i++ {
			j1 := 2 * i * step
			s := t.PsiRev[half+i]
			for j := j1; j < j1+step; j++ {
				u := a[j]
				v := m.Mul(a[j+step], s)
				a[j] = m.Add(u, v)
				a[j+step] = m.Sub(u, v)
			}
		}
	}
}

// Inverse transforms a in place: bit-reversed spectral order in, natural
// coefficient order out, including the final n⁻¹ scaling. Gentleman-Sande
// butterflies keep the multiplication on the difference path, matching the
// structure the paper's inverse transform uses.
func (t *Tables) Inverse(a Poly) {
	if len(a) != t.N {
		panic("ntt: Inverse length mismatch")
	}
	m := t.M
	step := 1
	for half := t.N >> 1; half >= 1; half >>= 1 {
		j1 := 0
		for i := 0; i < half; i++ {
			s := t.PsiInvRev[half+i]
			for j := j1; j < j1+step; j++ {
				u := a[j]
				v := a[j+step]
				a[j] = m.Add(u, v)
				a[j+step] = m.Mul(m.Sub(u, v), s)
			}
			j1 += 2 * step
		}
		step <<= 1
	}
	for j := range a {
		a[j] = m.Mul(a[j], t.NInv)
	}
}

// ForwardAlg3 is the paper's Algorithm 3 transcribed literally: bit-reverse
// first, then log₂n Cooley-Tukey stages whose running twiddle w starts at
// √ω_m and is multiplied by ω_m after each butterfly group. Output is the
// same spectrum as Forward but in natural index order.
func (t *Tables) ForwardAlg3(a Poly) {
	if len(a) != t.N {
		panic("ntt: ForwardAlg3 length mismatch")
	}
	mod := t.M
	zq.BitReversePermute(a)
	stage := 0
	for m := 2; m <= t.N; m <<= 1 {
		wm := t.StageRoots[stage][0]
		w := t.StageRoots[stage][1]
		stage++
		for j := 0; j < m/2; j++ {
			for k := 0; k < t.N; k += m {
				u := a[j+k]
				v := mod.Mul(w, a[j+k+m/2])
				a[j+k] = mod.Add(u, v)
				a[j+k+m/2] = mod.Sub(u, v)
			}
			w = mod.Mul(w, wm)
		}
	}
}

// PointwiseMul sets c = a ∘ b (coefficient-wise product); any aliasing among
// the arguments is allowed.
func (t *Tables) PointwiseMul(c, a, b Poly) {
	if len(a) != t.N || len(b) != t.N || len(c) != t.N {
		panic("ntt: PointwiseMul length mismatch")
	}
	for i := range c {
		c[i] = t.M.Mul(a[i], b[i])
	}
}

// Add sets c = a + b.
func (t *Tables) Add(c, a, b Poly) {
	if len(a) != t.N || len(b) != t.N || len(c) != t.N {
		panic("ntt: Add length mismatch")
	}
	for i := range c {
		c[i] = t.M.Add(a[i], b[i])
	}
}

// Sub sets c = a - b.
func (t *Tables) Sub(c, a, b Poly) {
	if len(a) != t.N || len(b) != t.N || len(c) != t.N {
		panic("ntt: Sub length mismatch")
	}
	for i := range c {
		c[i] = t.M.Sub(a[i], b[i])
	}
}

// ScalarMul sets c = s·a, every coefficient multiplied by the same scalar
// s (reduced mod q first). The scalar's Shoup companion is computed once
// per call and amortized over the n products, so the loop runs the same
// one-high-product multiply as the twiddle butterflies instead of a
// Barrett chain per coefficient.
func (t *Tables) ScalarMul(c, a Poly, s uint32) {
	if len(a) != t.N || len(c) != t.N {
		panic("ntt: ScalarMul length mismatch")
	}
	m := t.M
	if s >= m.Q {
		s %= m.Q
	}
	sh := m.Shoup(s)
	for i := range c {
		c[i] = m.MulShoup(a[i], s, sh)
	}
}

// Naive returns a·b in Z_q[x]/(x^n+1) by schoolbook convolution with sign
// folding: x^n ≡ -1. O(n²); the test oracle for every fast engine.
func (t *Tables) Naive(a, b Poly) Poly {
	n := t.N
	m := t.M
	c := make(Poly, n)
	for i := 0; i < n; i++ {
		if a[i] == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			p := m.Mul(a[i], b[j])
			k := i + j
			if k < n {
				c[k] = m.Add(c[k], p)
			} else {
				c[k-n] = m.Sub(c[k-n], p)
			}
		}
	}
	return c
}
