package ntt

import (
	"fmt"

	"ringlwe/internal/zq"
)

// The Shoup-multiplied, lazy-reduction NTT backend.
//
// Two ideas compose here, both standard in fast NTT practice (Harvey,
// "Faster arithmetic for number-theoretic transforms"; the NFLlib and SEAL
// kernels) and both a direct sharpening of the DATE 2015 paper's "make the
// butterfly cheap" theme:
//
//  1. Shoup multiplication. Every butterfly multiplies by a precomputed
//     twiddle w, so each twiddle is stored alongside its Shoup companion
//     w' = ⌊w·2³²/q⌋. The product a·w mod q then costs one 32×32→64 high
//     multiply (the quotient estimate), two 32-bit low multiplies and at
//     most one conditional subtraction — no Barrett chain, no 64-bit
//     remainder arithmetic.
//
//  2. Lazy reduction. Coefficients ride in [0, 2q) between stages instead
//     of being normalized to [0, q) after every butterfly; q < 2¹⁴ leaves
//     ample 32-bit headroom. The forward transform pays one fused
//     normalization sweep at the end; the inverse transform pays nothing
//     extra — its mandatory n⁻¹ scaling is a Shoup multiplication whose
//     conditional subtraction lands the result directly in canonical form.
//
// The engine fulfills the canonical-in/canonical-out Engine contract, so
// its results are bit-identical to the Barrett reference (asserted by the
// differential tests and the scheme-level KATs). The lazy-domain invariant
// — every stored intermediate stays strictly below 2q — is asserted
// stage by stage in shoup_test.go via the exported stage helpers.

// ShoupEngine is the Shoup-multiplied lazy-reduction backend. Construct
// with NewShoupEngine (or via the "shoup" registry entry); immutable after
// construction and safe for concurrent use. Beyond the Engine interface it
// exposes the fused lazy pointwise variants and the stage-level transform
// helpers the bound tests exercise.
type ShoupEngine struct {
	t *Tables

	q, twoQ uint32

	// psiRevShoup[i] = Shoup companion of PsiRev[i]; likewise the inverse.
	psiRevShoup    []uint32
	psiInvRevShoup []uint32

	// nInv and its companion fold the final inverse-NTT scaling and the
	// lazy→canonical normalization into one pass.
	nInv, nInvShoup uint32
}

// NewShoupEngine precomputes the Shoup companions of every twiddle in t.
// The modulus must satisfy 4q < 2³² (true by construction: NewModulus
// caps q below 2³¹ and the paper's moduli are 14-bit); the tighter paper
// range q < 2¹⁴ is what makes the lazy domain comfortable, but the kernel
// is correct for any modulus this module accepts below 2³⁰.
func NewShoupEngine(t *Tables) (Engine, error) {
	if t.M.Q >= 1<<30 {
		return nil, fmt.Errorf("ntt: shoup engine needs 4q < 2³², got q=%d", t.M.Q)
	}
	e := &ShoupEngine{
		t:              t,
		q:              t.M.Q,
		twoQ:           2 * t.M.Q,
		psiRevShoup:    make([]uint32, t.N),
		psiInvRevShoup: make([]uint32, t.N),
		nInv:           t.NInv,
		nInvShoup:      t.M.Shoup(t.NInv),
	}
	for i := 0; i < t.N; i++ {
		e.psiRevShoup[i] = t.M.Shoup(t.PsiRev[i])
		e.psiInvRevShoup[i] = t.M.Shoup(t.PsiInvRev[i])
	}
	return e, nil
}

func init() {
	RegisterEngine("shoup", NewShoupEngine)
}

// Name implements Engine.
func (e *ShoupEngine) Name() string { return "shoup" }

// Tables implements Engine.
func (e *ShoupEngine) Tables() *Tables { return e.t }

// ForwardStage runs one Cooley-Tukey stage of the lazy forward transform:
// `half` butterfly groups of `step` butterflies each. Input and output
// coefficients live in the lazy domain [0, 2q); the per-butterfly cost is
// one Shoup multiplication and two conditional subtractions. Exported so
// the bound tests can assert the lazy invariant between stages; use
// Forward for whole transforms.
func (e *ShoupEngine) ForwardStage(a Poly, half, step int) {
	m, twoQ := e.t.M, e.twoQ
	for i := 0; i < half; i++ {
		w := e.t.PsiRev[half+i]
		ws := e.psiRevShoup[half+i]
		j1 := 2 * i * step
		lo := a[j1 : j1+step : j1+step]
		hi := a[j1+step : j1+2*step : j1+2*step]
		for j := 0; j < len(lo) && j < len(hi); j++ {
			u := lo[j]
			v := hi[j]
			p := m.MulShoupLazy(v, w, ws)
			x := u + p
			if x >= twoQ {
				x -= twoQ
			}
			y := u - p + twoQ
			if y >= twoQ {
				y -= twoQ
			}
			lo[j] = x
			hi[j] = y
		}
	}
}

// InverseStage runs one Gentleman-Sande stage of the lazy inverse
// transform, preserving the [0, 2q) invariant. Exported for the bound
// tests; use Inverse for whole transforms.
func (e *ShoupEngine) InverseStage(a Poly, half, step int) {
	m, twoQ := e.t.M, e.twoQ
	j1 := 0
	for i := 0; i < half; i++ {
		w := e.t.PsiInvRev[half+i]
		ws := e.psiInvRevShoup[half+i]
		lo := a[j1 : j1+step : j1+step]
		hi := a[j1+step : j1+2*step : j1+2*step]
		for j := 0; j < len(lo) && j < len(hi); j++ {
			u := lo[j]
			v := hi[j]
			x := u + v
			if x >= twoQ {
				x -= twoQ
			}
			d := u - v + twoQ // in (0, 4q): any uint32 is a valid Shoup operand
			lo[j] = x
			hi[j] = m.MulShoupLazy(d, w, ws)
		}
		j1 += 2 * step
	}
}

// forwardLazy runs all log₂n forward stages, leaving the spectrum in the
// lazy domain [0, 2q).
func (e *ShoupEngine) forwardLazy(a Poly) {
	step := e.t.N
	for half := 1; half < e.t.N; half <<= 1 {
		step >>= 1
		e.ForwardStage(a, half, step)
	}
}

// Normalize folds every lazy coefficient back to its canonical residue.
// One branch-free zq.CondSub per coefficient (sound: q < 2³⁰ and inputs
// are below 2q) — the entire price the forward transform pays for riding
// lazy through all (n/2)·log₂n butterflies. No coefficient steers a
// branch, which the ConstantTime profile's encrypt path relies on.
func (e *ShoupEngine) Normalize(a Poly) {
	q := e.q
	for j, v := range a {
		a[j] = zq.CondSub(v, q)
	}
}

// Forward implements Engine: lazy butterflies throughout, one fused
// normalization sweep at the end.
func (e *ShoupEngine) Forward(a Poly) {
	if len(a) != e.t.N {
		panic("ntt: Forward length mismatch")
	}
	e.forwardLazy(a)
	e.Normalize(a)
}

// ForwardThree implements Engine: the paper's parallel-3 NTT with Shoup
// butterflies — the twiddle and its Shoup companion are loaded once per
// butterfly group and reused across all three polynomials, each riding the
// lazy [0, 2q) domain until one final normalization sweep. The batch slice
// stays on the stack, so the fused pass allocates nothing.
func (e *ShoupEngine) ForwardThree(a, b, c Poly) {
	n := e.t.N
	if len(a) != n || len(b) != n || len(c) != n {
		panic("ntt: ForwardThree length mismatch")
	}
	polys := []Poly{a, b, c}
	m, twoQ := e.t.M, e.twoQ
	step := n
	for half := 1; half < n; half <<= 1 {
		step >>= 1
		for i := 0; i < half; i++ {
			w := e.t.PsiRev[half+i]
			ws := e.psiRevShoup[half+i]
			j1 := 2 * i * step
			for j := j1; j < j1+step; j++ {
				for _, p := range polys {
					u := p[j]
					v := p[j+step]
					t := m.MulShoupLazy(v, w, ws)
					x := u + t
					if x >= twoQ {
						x -= twoQ
					}
					y := u - t + twoQ
					if y >= twoQ {
						y -= twoQ
					}
					p[j] = x
					p[j+step] = y
				}
			}
		}
	}
	for _, p := range polys {
		e.Normalize(p)
	}
}

// Inverse implements Engine. The final n⁻¹ scaling is a Shoup
// multiplication by a fixed constant whose conditional subtraction doubles
// as the lazy→canonical normalization, so the inverse transform has no
// separate normalization pass at all.
func (e *ShoupEngine) Inverse(a Poly) {
	if len(a) != e.t.N {
		panic("ntt: Inverse length mismatch")
	}
	step := 1
	for half := e.t.N >> 1; half >= 1; half >>= 1 {
		e.InverseStage(a, half, step)
		step <<= 1
	}
	e.ScaleNInv(a)
}

// ScaleNInv multiplies every lazy coefficient by n⁻¹ and normalizes to
// canonical form in the same pass (the folded normalization). Exported for
// the bound tests; Inverse calls it as its final step.
func (e *ShoupEngine) ScaleNInv(a Poly) {
	m := e.t.M
	w, ws := e.nInv, e.nInvShoup
	for j, v := range a {
		a[j] = m.MulShoup(v, w, ws)
	}
}

// PointwiseMul implements Engine. This is the fused lazy variant: operands
// may be lazy (in [0, 2q)) — the left operand is normalized on the fly so
// the 64-bit product stays within the Barrett range 2q² < 2^(2·BitLen+1) —
// and the output is canonical. Canonical inputs are the degenerate case.
func (e *ShoupEngine) PointwiseMul(c, a, b Poly) {
	n := e.t.N
	if len(a) != n || len(b) != n || len(c) != n {
		panic("ntt: PointwiseMul length mismatch")
	}
	m := e.t.M
	q := e.q
	for i := range c {
		x := a[i]
		if x >= q {
			x -= q
		}
		c[i] = m.Reduce(uint64(x) * uint64(b[i]))
	}
}

// PointwiseMulAdd implements Engine: acc += a ∘ b, with the same fused
// lazy-operand handling as PointwiseMul. acc enters and leaves canonical.
func (e *ShoupEngine) PointwiseMulAdd(acc, a, b Poly) {
	n := e.t.N
	if len(a) != n || len(b) != n || len(acc) != n {
		panic("ntt: PointwiseMulAdd length mismatch")
	}
	m := e.t.M
	q := e.q
	for i := range acc {
		x := a[i]
		if x >= q {
			x -= q
		}
		s := acc[i] + m.Reduce(uint64(x)*uint64(b[i]))
		if s >= q {
			s -= q
		}
		acc[i] = s
	}
}

// Add implements Engine: c = a + b with a single conditional subtraction
// per coefficient — the sum of two canonical residues is below 2q, so no
// reduction chain is needed.
func (e *ShoupEngine) Add(c, a, b Poly) {
	n := e.t.N
	if len(a) != n || len(b) != n || len(c) != n {
		panic("ntt: Add length mismatch")
	}
	q := e.q
	for i := range c {
		s := a[i] + b[i]
		if s >= q {
			s -= q
		}
		c[i] = s
	}
}

// Sub implements Engine: c = a - b via the add-q trick, one conditional
// subtraction per coefficient.
func (e *ShoupEngine) Sub(c, a, b Poly) {
	n := e.t.N
	if len(a) != n || len(b) != n || len(c) != n {
		panic("ntt: Sub length mismatch")
	}
	q := e.q
	for i := range c {
		d := a[i] + q - b[i]
		if d >= q {
			d -= q
		}
		c[i] = d
	}
}

// ScalarMul implements Engine: c = s·a through one Shoup companion
// computed per call and amortized over all n products, exactly like a
// twiddle multiply — no Barrett chain in the loop.
func (e *ShoupEngine) ScalarMul(c, a Poly, s uint32) {
	n := e.t.N
	if len(a) != n || len(c) != n {
		panic("ntt: ScalarMul length mismatch")
	}
	m := e.t.M
	if s >= e.q {
		s %= e.q
	}
	sh := m.Shoup(s)
	for i := range c {
		c[i] = m.MulShoup(a[i], s, sh)
	}
}

// ForwardInto implements Engine.
func (e *ShoupEngine) ForwardInto(dst, src Poly) {
	prepInto(e.t, dst, src, "ForwardInto")
	e.Forward(dst)
}

// InverseInto implements Engine.
func (e *ShoupEngine) InverseInto(dst, src Poly) {
	prepInto(e.t, dst, src, "InverseInto")
	e.Inverse(dst)
}

// MulInto implements Engine with the fully lazy pipeline: both forward
// transforms skip their normalization sweeps, the fused pointwise product
// absorbs the lazy operands, and the inverse ends canonical through the
// n⁻¹ scaling — exactly one normalization in the whole multiplication.
func (e *ShoupEngine) MulInto(dst, a, b, scratch Poly) {
	n := e.t.N
	if len(dst) != n || len(a) != n || len(b) != n || len(scratch) != n {
		panic("ntt: MulInto length mismatch")
	}
	copy(scratch, b)
	if &dst[0] != &a[0] {
		copy(dst, a)
	}
	e.forwardLazy(dst)
	e.forwardLazy(scratch)
	e.PointwiseMul(dst, dst, scratch)
	e.Inverse(dst)
}
