package ntt

import (
	"fmt"

	"ringlwe/internal/zq"
)

// The lane-parallel ("vector") NTT backend.
//
// Shoup-multiplied twiddles (each twiddle w stored beside its companion
// w' = ⌊w·2³²/q⌋, so w·v mod q costs one high and two low multiplies;
// Harvey, "Faster arithmetic for number-theoretic transforms") and lazy
// [0, 2q) intermediates, with the stage loops restructured the way a
// SIMD unit wants them, which is the DATE 2015 paper's word-level
// parallelism theme transposed from a Cortex-M register file to a modern
// out-of-order core. Go does not auto-vectorize, so in portable Go the
// gain is instruction-level parallelism across eight independent scalar
// lane chains:
//
//   - Flat lane blocks. Wherever the butterfly stride allows it, eight
//     butterflies are processed per iteration through *[8]uint32 array
//     pointers: the conversion proves the bounds once per block, so the
//     lane bodies compile to straight-line loads and stores with no
//     bounds checks and no loop-carried dependency between lanes.
//   - Hoisted twiddle broadcasts. The twiddle and its Shoup companion are
//     loaded once per butterfly group and held in registers across the
//     whole block — the scalar analogue of a SIMD broadcast.
//   - Branchless folds. Every conditional subtraction is zq.CondSub, an
//     arithmetic sign-bit fold (see the lane-width bound lemma in
//     internal/zq/lazy.go) instead of a compare-and-branch, so the eight
//     lane chains never serialize on flags and map one to one onto
//     compare/mask/add lane instructions.
//   - Fused normalization. The forward transform's lazy→canonical sweep
//     is folded into the final (stride-1) stage, and the inverse's into
//     its n⁻¹ scaling — no separate normalization pass touches memory.
//
// The short-stride stages (step 4, 2, 1), where lo and hi lanes interleave
// inside one block, get dedicated kernels that keep the whole 8-coefficient
// block in registers.
//
// These portable kernels run everywhere and are the oracle for the AVX2
// kernels of vector_amd64.s, which Forward, Inverse and PointwiseMul run
// instead of vecForward, vecInverse and the portable product on AVX2
// hosts when 4q ≤ 2¹⁶ and n ≥ 32 (P1, P2 and A1; see simdAdmits). Those
// keep the []uint32 layout, eight coefficients to a ymm register, and do
// 16-bit Shoup arithmetic in the low word of each lane, the 16-bit-lane
// NTT of Seiler ("Faster AVX2 optimized NTT multiplication for Ring-LWE
// lattice cryptography", ePrint 2018/039); the last four stages run per
// 16-coefficient block with in-register shuffles.
//
// Results are bit-identical to the Barrett reference (asserted by the
// differential tests and scheme KATs); only the schedule differs. No
// coefficient steers a branch in either set of transform kernels: the
// portable ones jump only on loop control and bounds checks, the assembly
// only on loop control (TestCodecHasNoDataBranches in internal/core and
// TestAVX2KernelsHaveNoDataBranches here pin both), which the ConstantTime
// profile relies on.

// VectorEngine is the lane-parallel Shoup backend. Construct with
// NewVectorEngine (or via the "vector" registry entry); immutable after
// construction and safe for concurrent use.
type VectorEngine struct {
	t *Tables

	q, twoQ uint32

	// psiRevShoup[i] = Shoup companion of PsiRev[i]; likewise the inverse.
	// Only the portable kernels read them: nil when simd is set.
	psiRevShoup    []uint32
	psiInvRevShoup []uint32

	// nInv and its companion fold the inverse-NTT scaling and the final
	// normalization into one pass; nInvPsi = n⁻¹·ψ⁻¹ pre-merges the last
	// inverse stage's (single) twiddle into the scaling, so that stage
	// emits canonical coefficients directly and no separate scaling pass
	// runs at all.
	nInv, nInvShoup       uint32
	nInvPsi, nInvPsiShoup uint32

	// simd is non-nil when the AVX2 kernels run the transforms and
	// PointwiseMul.
	simd *simdTables
}

// NewVectorEngine precomputes the Shoup companions of every twiddle in t.
// The modulus must satisfy the vector kernels' bound lemma 4q ≤ 2³¹
// (zq.Modulus.VectorSafe) so the branchless sign-bit folds are sound, and
// the dimension must be ≥ 16 so every stride class has a full lane block;
// both paper parameter sets qualify with room to spare. On an AVX2 host,
// tables that also satisfy simdAdmits run the assembly kernels.
func NewVectorEngine(t *Tables) (Engine, error) {
	return newVectorEngine(t, hasAVX2)
}

// newVectorEngine is NewVectorEngine with the choice of the AVX2 kernels
// made by the caller: simd must only be true where hasAVX2 is, and tests
// pass false to build the portable engine on any host.
func newVectorEngine(t *Tables, simd bool) (*VectorEngine, error) {
	if err := vectorRefuses(t); err != nil {
		return nil, err
	}
	e := &VectorEngine{
		t:         t,
		q:         t.M.Q,
		twoQ:      2 * t.M.Q,
		nInv:      t.NInv,
		nInvShoup: t.M.Shoup(t.NInv),
	}
	e.nInvPsi = t.M.Mul(t.NInv, t.PsiInvRev[1])
	e.nInvPsiShoup = t.M.Shoup(e.nInvPsi)
	if simd && simdAdmits(t) {
		e.simd = newSIMDTables(t, e.nInvPsi)
		return e, nil
	}
	e.psiRevShoup = make([]uint32, t.N)
	e.psiInvRevShoup = make([]uint32, t.N)
	for i := 0; i < t.N; i++ {
		e.psiRevShoup[i] = t.M.Shoup(t.PsiRev[i])
		e.psiInvRevShoup[i] = t.M.Shoup(t.PsiInvRev[i])
	}
	return e, nil
}

// simdAdmits reports whether the 16-bit AVX2 kernels can run over t: every
// lazy intermediate (below 4q) must fit a 16-bit word, and the dimension
// must give the wide-stage loops whole 16-coefficient groups (n ≥ 32).
// P1, P2 and A1 qualify; B1's 29-bit channels do not.
func simdAdmits(t *Tables) bool {
	return 4*uint64(t.M.Q) <= 1<<16 && t.N >= 32
}

// simdTables hold the AVX2 kernels' constants. They replace the portable
// kernels' Shoup companion tables, which an engine running the assembly
// does not build, so both kinds of engine hold the same 8n bytes.
type simdTables struct {
	// fwd[k] and inv[k] pack PsiRev[k] and PsiInvRev[k] with their 16-bit
	// Shoup companions (packShoup16). inv[0] and inv[1], never used as
	// twiddles, pack n⁻¹ and n⁻¹·ψ⁻¹ for the inverse's fused final stage.
	fwd, inv []uint32

	// PointwiseMul's q⁻¹ mod 2¹⁶, and its Montgomery fix-up factor
	// 2¹⁶ mod q packed with its companion.
	qInv, mont uint32
}

func newSIMDTables(t *Tables, nInvPsi uint32) *simdTables {
	n, q := t.N, t.M.Q
	s := &simdTables{fwd: make([]uint32, n), inv: make([]uint32, n)}
	for k := 0; k < n; k++ {
		s.fwd[k] = packShoup16(t.PsiRev[k], q)
		s.inv[k] = packShoup16(t.PsiInvRev[k], q)
	}
	s.inv[0], s.inv[1] = packShoup16(t.NInv, q), packShoup16(nInvPsi, q)
	s.qInv = q // Newton: each step doubles the bits of q⁻¹ mod 2¹⁶ (q·q ≡ 1 mod 8)
	for i := 0; i < 3; i++ {
		s.qInv = s.qInv * (2 - q*s.qInv) & 0xffff
	}
	s.mont = packShoup16((1<<16)%q, q)
	return s
}

// packShoup16 packs a canonical w < 2¹⁶ with its 16-bit Shoup companion
// ⌊w·2¹⁶/q⌋ into the high word: the layout vector_amd64.s loads.
func packShoup16(w, q uint32) uint32 {
	return w | uint32((uint64(w)<<16)/uint64(q))<<16
}

// vectorRefuses reports why the vector kernels cannot run over t, or nil
// when they can. ResolveEngine consults it to fall back without building
// an engine.
func vectorRefuses(t *Tables) error {
	if !t.M.VectorSafe() {
		return fmt.Errorf("ntt: vector engine needs 4q ≤ 2³¹, got q=%d", t.M.Q)
	}
	if t.N < 16 {
		return fmt.Errorf("ntt: vector engine needs n ≥ 16, got n=%d", t.N)
	}
	return nil
}

func init() {
	RegisterEngine("vector", NewVectorEngine)
}

// Name implements Engine.
func (e *VectorEngine) Name() string { return "vector" }

// Tables implements Engine.
func (e *VectorEngine) Tables() *Tables { return e.t }

// mulShoupLazy is zq.Modulus.MulShoupLazy with the modulus held in a
// register-resident scalar, so the kernels below inline it without
// touching the Modulus struct per lane.
func mulShoupLazy(v, w, ws, q uint32) uint32 {
	t := uint32((uint64(v) * uint64(ws)) >> 32)
	return v*w - t*q
}

// fwdButterfly8 runs eight forward butterflies u±w·v with one broadcast
// twiddle over two contiguous lane blocks, keeping every intermediate in
// the lazy [0, 2q) domain. The *[8]uint32 arguments carry their bounds in
// the type, so the lane bodies are check-free straight-line code.
func fwdButterfly8(lo, hi *[8]uint32, w, ws, q, twoQ uint32) {
	u0, v0 := lo[0], mulShoupLazy(hi[0], w, ws, q)
	u1, v1 := lo[1], mulShoupLazy(hi[1], w, ws, q)
	u2, v2 := lo[2], mulShoupLazy(hi[2], w, ws, q)
	u3, v3 := lo[3], mulShoupLazy(hi[3], w, ws, q)
	u4, v4 := lo[4], mulShoupLazy(hi[4], w, ws, q)
	u5, v5 := lo[5], mulShoupLazy(hi[5], w, ws, q)
	u6, v6 := lo[6], mulShoupLazy(hi[6], w, ws, q)
	u7, v7 := lo[7], mulShoupLazy(hi[7], w, ws, q)
	lo[0], hi[0] = zq.CondSub(u0+v0, twoQ), zq.CondSub(u0-v0+twoQ, twoQ)
	lo[1], hi[1] = zq.CondSub(u1+v1, twoQ), zq.CondSub(u1-v1+twoQ, twoQ)
	lo[2], hi[2] = zq.CondSub(u2+v2, twoQ), zq.CondSub(u2-v2+twoQ, twoQ)
	lo[3], hi[3] = zq.CondSub(u3+v3, twoQ), zq.CondSub(u3-v3+twoQ, twoQ)
	lo[4], hi[4] = zq.CondSub(u4+v4, twoQ), zq.CondSub(u4-v4+twoQ, twoQ)
	lo[5], hi[5] = zq.CondSub(u5+v5, twoQ), zq.CondSub(u5-v5+twoQ, twoQ)
	lo[6], hi[6] = zq.CondSub(u6+v6, twoQ), zq.CondSub(u6-v6+twoQ, twoQ)
	lo[7], hi[7] = zq.CondSub(u7+v7, twoQ), zq.CondSub(u7-v7+twoQ, twoQ)
}

// invButterfly8 runs eight inverse (Gentleman-Sande) butterflies with one
// broadcast twiddle: sums fold lazily, differences ride the 2q offset into
// the Shoup multiply (any uint32 is a valid Shoup operand).
func invButterfly8(lo, hi *[8]uint32, w, ws, q, twoQ uint32) {
	u0, v0 := lo[0], hi[0]
	u1, v1 := lo[1], hi[1]
	u2, v2 := lo[2], hi[2]
	u3, v3 := lo[3], hi[3]
	u4, v4 := lo[4], hi[4]
	u5, v5 := lo[5], hi[5]
	u6, v6 := lo[6], hi[6]
	u7, v7 := lo[7], hi[7]
	lo[0], hi[0] = zq.CondSub(u0+v0, twoQ), mulShoupLazy(u0-v0+twoQ, w, ws, q)
	lo[1], hi[1] = zq.CondSub(u1+v1, twoQ), mulShoupLazy(u1-v1+twoQ, w, ws, q)
	lo[2], hi[2] = zq.CondSub(u2+v2, twoQ), mulShoupLazy(u2-v2+twoQ, w, ws, q)
	lo[3], hi[3] = zq.CondSub(u3+v3, twoQ), mulShoupLazy(u3-v3+twoQ, w, ws, q)
	lo[4], hi[4] = zq.CondSub(u4+v4, twoQ), mulShoupLazy(u4-v4+twoQ, w, ws, q)
	lo[5], hi[5] = zq.CondSub(u5+v5, twoQ), mulShoupLazy(u5-v5+twoQ, w, ws, q)
	lo[6], hi[6] = zq.CondSub(u6+v6, twoQ), mulShoupLazy(u6-v6+twoQ, w, ws, q)
	lo[7], hi[7] = zq.CondSub(u7+v7, twoQ), mulShoupLazy(u7-v7+twoQ, w, ws, q)
}

// vecForward is the whole-transform forward kernel: lazy butterflies
// throughout, canonical output via the normalization fused into the final
// stage. Stages are dispatched by stride class — wide strides run 8-lane
// blocks, the three interleaved tail strides (4, 2, 1) run dedicated
// in-register block kernels.
func vecForward(e *VectorEngine, a Poly) {
	n := e.t.N
	q, twoQ := e.q, e.twoQ
	psi, psiS := e.t.PsiRev, e.psiRevShoup

	// Wide stages: stride ≥ 8, every group splits into full lane blocks.
	step := n
	half := 1
	for ; step > 8; half <<= 1 {
		step >>= 1
		for i := 0; i < half; i++ {
			w, ws := psi[half+i], psiS[half+i]
			j1 := 2 * i * step
			for j := j1; j < j1+step; j += 8 {
				fwdButterfly8((*[8]uint32)(a[j:]), (*[8]uint32)(a[j+step:]), w, ws, q, twoQ)
			}
		}
	}

	// step == 4: one 8-coefficient block per group, lanes 0-3 low and
	// 4-7 high, twiddle broadcast across the four in-block butterflies.
	half = n / 8
	for i := 0; i < half; i++ {
		w, ws := psi[half+i], psiS[half+i]
		g := (*[8]uint32)(a[8*i:])
		v0 := mulShoupLazy(g[4], w, ws, q)
		v1 := mulShoupLazy(g[5], w, ws, q)
		v2 := mulShoupLazy(g[6], w, ws, q)
		v3 := mulShoupLazy(g[7], w, ws, q)
		u0, u1, u2, u3 := g[0], g[1], g[2], g[3]
		g[0], g[4] = zq.CondSub(u0+v0, twoQ), zq.CondSub(u0-v0+twoQ, twoQ)
		g[1], g[5] = zq.CondSub(u1+v1, twoQ), zq.CondSub(u1-v1+twoQ, twoQ)
		g[2], g[6] = zq.CondSub(u2+v2, twoQ), zq.CondSub(u2-v2+twoQ, twoQ)
		g[3], g[7] = zq.CondSub(u3+v3, twoQ), zq.CondSub(u3-v3+twoQ, twoQ)
	}

	// step == 2: two groups (two twiddles) per 8-coefficient block.
	half = n / 4
	for i := 0; i < half; i += 2 {
		w0, ws0 := psi[half+i], psiS[half+i]
		w1, ws1 := psi[half+i+1], psiS[half+i+1]
		g := (*[8]uint32)(a[4*i:])
		v0 := mulShoupLazy(g[2], w0, ws0, q)
		v1 := mulShoupLazy(g[3], w0, ws0, q)
		v2 := mulShoupLazy(g[6], w1, ws1, q)
		v3 := mulShoupLazy(g[7], w1, ws1, q)
		u0, u1, u2, u3 := g[0], g[1], g[4], g[5]
		g[0], g[2] = zq.CondSub(u0+v0, twoQ), zq.CondSub(u0-v0+twoQ, twoQ)
		g[1], g[3] = zq.CondSub(u1+v1, twoQ), zq.CondSub(u1-v1+twoQ, twoQ)
		g[4], g[6] = zq.CondSub(u2+v2, twoQ), zq.CondSub(u2-v2+twoQ, twoQ)
		g[5], g[7] = zq.CondSub(u3+v3, twoQ), zq.CondSub(u3-v3+twoQ, twoQ)
	}

	// step == 1, fused with normalization: four pairs (four twiddles) per
	// block, and every output is folded from [0, 4q) straight down to the
	// canonical [0, q) — the forward transform's only normalization, paid
	// without a separate memory pass.
	half = n / 2
	for i := 0; i < half; i += 4 {
		w0, ws0 := psi[half+i], psiS[half+i]
		w1, ws1 := psi[half+i+1], psiS[half+i+1]
		w2, ws2 := psi[half+i+2], psiS[half+i+2]
		w3, ws3 := psi[half+i+3], psiS[half+i+3]
		g := (*[8]uint32)(a[2*i:])
		v0 := mulShoupLazy(g[1], w0, ws0, q)
		v1 := mulShoupLazy(g[3], w1, ws1, q)
		v2 := mulShoupLazy(g[5], w2, ws2, q)
		v3 := mulShoupLazy(g[7], w3, ws3, q)
		u0, u1, u2, u3 := g[0], g[2], g[4], g[6]
		g[0] = zq.CondSub(zq.CondSub(u0+v0, twoQ), q)
		g[1] = zq.CondSub(zq.CondSub(u0-v0+twoQ, twoQ), q)
		g[2] = zq.CondSub(zq.CondSub(u1+v1, twoQ), q)
		g[3] = zq.CondSub(zq.CondSub(u1-v1+twoQ, twoQ), q)
		g[4] = zq.CondSub(zq.CondSub(u2+v2, twoQ), q)
		g[5] = zq.CondSub(zq.CondSub(u2-v2+twoQ, twoQ), q)
		g[6] = zq.CondSub(zq.CondSub(u3+v3, twoQ), q)
		g[7] = zq.CondSub(zq.CondSub(u3-v3+twoQ, twoQ), q)
	}
}

// vecInverse is the whole-transform inverse kernel: the stride classes of
// the forward kernel mirrored, with the n⁻¹ scaling (and its fused
// normalization) folded into the final stage.
func vecInverse(e *VectorEngine, a Poly) {
	n := e.t.N
	q, twoQ := e.q, e.twoQ
	psi, psiS := e.t.PsiInvRev, e.psiInvRevShoup

	// step == 1: four pairs per block.
	half := n / 2
	for i := 0; i < half; i += 4 {
		w0, ws0 := psi[half+i], psiS[half+i]
		w1, ws1 := psi[half+i+1], psiS[half+i+1]
		w2, ws2 := psi[half+i+2], psiS[half+i+2]
		w3, ws3 := psi[half+i+3], psiS[half+i+3]
		g := (*[8]uint32)(a[2*i:])
		u0, v0 := g[0], g[1]
		u1, v1 := g[2], g[3]
		u2, v2 := g[4], g[5]
		u3, v3 := g[6], g[7]
		g[0], g[1] = zq.CondSub(u0+v0, twoQ), mulShoupLazy(u0-v0+twoQ, w0, ws0, q)
		g[2], g[3] = zq.CondSub(u1+v1, twoQ), mulShoupLazy(u1-v1+twoQ, w1, ws1, q)
		g[4], g[5] = zq.CondSub(u2+v2, twoQ), mulShoupLazy(u2-v2+twoQ, w2, ws2, q)
		g[6], g[7] = zq.CondSub(u3+v3, twoQ), mulShoupLazy(u3-v3+twoQ, w3, ws3, q)
	}

	// step == 2: two groups per block.
	half = n / 4
	for i := 0; i < half; i += 2 {
		w0, ws0 := psi[half+i], psiS[half+i]
		w1, ws1 := psi[half+i+1], psiS[half+i+1]
		g := (*[8]uint32)(a[4*i:])
		u0, v0 := g[0], g[2]
		u1, v1 := g[1], g[3]
		u2, v2 := g[4], g[6]
		u3, v3 := g[5], g[7]
		g[0], g[2] = zq.CondSub(u0+v0, twoQ), mulShoupLazy(u0-v0+twoQ, w0, ws0, q)
		g[1], g[3] = zq.CondSub(u1+v1, twoQ), mulShoupLazy(u1-v1+twoQ, w0, ws0, q)
		g[4], g[6] = zq.CondSub(u2+v2, twoQ), mulShoupLazy(u2-v2+twoQ, w1, ws1, q)
		g[5], g[7] = zq.CondSub(u3+v3, twoQ), mulShoupLazy(u3-v3+twoQ, w1, ws1, q)
	}

	// step == 4: one group per block.
	half = n / 8
	for i := 0; i < half; i++ {
		w, ws := psi[half+i], psiS[half+i]
		g := (*[8]uint32)(a[8*i:])
		u0, v0 := g[0], g[4]
		u1, v1 := g[1], g[5]
		u2, v2 := g[2], g[6]
		u3, v3 := g[3], g[7]
		g[0], g[4] = zq.CondSub(u0+v0, twoQ), mulShoupLazy(u0-v0+twoQ, w, ws, q)
		g[1], g[5] = zq.CondSub(u1+v1, twoQ), mulShoupLazy(u1-v1+twoQ, w, ws, q)
		g[2], g[6] = zq.CondSub(u2+v2, twoQ), mulShoupLazy(u2-v2+twoQ, w, ws, q)
		g[3], g[7] = zq.CondSub(u3+v3, twoQ), mulShoupLazy(u3-v3+twoQ, w, ws, q)
	}

	// Wide stages: stride ≥ 8, except the final (half == 1) stage.
	step := 8
	for half = n / 16; half >= 2; half >>= 1 {
		j1 := 0
		for i := 0; i < half; i++ {
			w, ws := psi[half+i], psiS[half+i]
			for j := j1; j < j1+step; j += 8 {
				invButterfly8((*[8]uint32)(a[j:]), (*[8]uint32)(a[j+step:]), w, ws, q, twoQ)
			}
			j1 += 2 * step
		}
		step <<= 1
	}

	// Final stage (half == 1, stride n/2), fused with the n⁻¹ scaling:
	// the stage's single twiddle is pre-merged into nInvPsi, so the low
	// outputs scale by n⁻¹ and the high outputs by n⁻¹·ψ⁻¹ — one Shoup
	// multiply per coefficient lands everything canonical, and the
	// transform needs no separate scaling or normalization pass.
	nv, nvs := e.nInv, e.nInvShoup
	np, nps := e.nInvPsi, e.nInvPsiShoup
	step = n / 2
	for j := 0; j < step; j += 8 {
		lo := (*[8]uint32)(a[j:])
		hi := (*[8]uint32)(a[j+step:])
		u0, v0 := lo[0], hi[0]
		u1, v1 := lo[1], hi[1]
		u2, v2 := lo[2], hi[2]
		u3, v3 := lo[3], hi[3]
		u4, v4 := lo[4], hi[4]
		u5, v5 := lo[5], hi[5]
		u6, v6 := lo[6], hi[6]
		u7, v7 := lo[7], hi[7]
		lo[0] = zq.CondSub(mulShoupLazy(u0+v0, nv, nvs, q), q)
		lo[1] = zq.CondSub(mulShoupLazy(u1+v1, nv, nvs, q), q)
		lo[2] = zq.CondSub(mulShoupLazy(u2+v2, nv, nvs, q), q)
		lo[3] = zq.CondSub(mulShoupLazy(u3+v3, nv, nvs, q), q)
		lo[4] = zq.CondSub(mulShoupLazy(u4+v4, nv, nvs, q), q)
		lo[5] = zq.CondSub(mulShoupLazy(u5+v5, nv, nvs, q), q)
		lo[6] = zq.CondSub(mulShoupLazy(u6+v6, nv, nvs, q), q)
		lo[7] = zq.CondSub(mulShoupLazy(u7+v7, nv, nvs, q), q)
		hi[0] = zq.CondSub(mulShoupLazy(u0-v0+twoQ, np, nps, q), q)
		hi[1] = zq.CondSub(mulShoupLazy(u1-v1+twoQ, np, nps, q), q)
		hi[2] = zq.CondSub(mulShoupLazy(u2-v2+twoQ, np, nps, q), q)
		hi[3] = zq.CondSub(mulShoupLazy(u3-v3+twoQ, np, nps, q), q)
		hi[4] = zq.CondSub(mulShoupLazy(u4-v4+twoQ, np, nps, q), q)
		hi[5] = zq.CondSub(mulShoupLazy(u5-v5+twoQ, np, nps, q), q)
		hi[6] = zq.CondSub(mulShoupLazy(u6-v6+twoQ, np, nps, q), q)
		hi[7] = zq.CondSub(mulShoupLazy(u7-v7+twoQ, np, nps, q), q)
	}
}

// Forward implements Engine: flat lane-block butterflies throughout, with
// the lazy→canonical normalization fused into the final stage.
func (e *VectorEngine) Forward(a Poly) {
	if len(a) != e.t.N {
		panic("ntt: Forward length mismatch")
	}
	if s := e.simd; s != nil {
		forwardAVX2(a, s.fwd, e.q)
		return
	}
	vecForward(e, a)
}

// Inverse implements Engine: mirrored lane-block stages, with the n⁻¹
// scaling (twiddle-merged) and normalization fused into the final stage.
func (e *VectorEngine) Inverse(a Poly) {
	if len(a) != e.t.N {
		panic("ntt: Inverse length mismatch")
	}
	if s := e.simd; s != nil {
		inverseAVX2(a, s.inv, e.q)
		return
	}
	vecInverse(e, a)
}

// ForwardThree implements Engine as three flat kernel runs: the vector
// kernels amortize twiddle loads across lanes within each polynomial, so
// cross-polynomial interleaving (the Barrett path's fusion lever) would
// only break the contiguous lane blocks.
func (e *VectorEngine) ForwardThree(a, b, c Poly) {
	e.Forward(a)
	e.Forward(b)
	e.Forward(c)
}

// PointwiseMul implements Engine: the left operand folds canonical on the
// fly, so lazy inputs are accepted and the output is canonical.
func (e *VectorEngine) PointwiseMul(c, a, b Poly) {
	n := e.t.N
	if len(a) != n || len(b) != n || len(c) != n {
		panic("ntt: PointwiseMul length mismatch")
	}
	if s := e.simd; s != nil {
		pointwiseMulAVX2(c, a, b, e.q, s.qInv, s.mont)
		return
	}
	m := e.t.M
	q := e.q
	for i := range c {
		c[i] = m.Reduce(uint64(zq.CondSub(a[i], q)) * uint64(b[i]))
	}
}

// Add implements Engine: branchless per-coefficient add, one sign-bit fold
// per coefficient and no data-dependent branch.
func (e *VectorEngine) Add(c, a, b Poly) {
	n := e.t.N
	if len(a) != n || len(b) != n || len(c) != n {
		panic("ntt: Add length mismatch")
	}
	q := e.q
	for i := range c {
		c[i] = zq.CondSub(a[i]+b[i], q)
	}
}

// Sub implements Engine: branchless per-coefficient subtract via the
// add-q trick.
func (e *VectorEngine) Sub(c, a, b Poly) {
	n := e.t.N
	if len(a) != n || len(b) != n || len(c) != n {
		panic("ntt: Sub length mismatch")
	}
	q := e.q
	for i := range c {
		c[i] = zq.CondSub(a[i]+q-b[i], q)
	}
}

// ScalarMul implements Engine: one Shoup companion per call, branchless
// lazy products folded canonical on the way out.
func (e *VectorEngine) ScalarMul(c, a Poly, s uint32) {
	n := e.t.N
	if len(a) != n || len(c) != n {
		panic("ntt: ScalarMul length mismatch")
	}
	m := e.t.M
	q := e.q
	if s >= q {
		s %= q
	}
	sh := m.Shoup(s)
	for i := range c {
		c[i] = zq.CondSub(m.MulShoupLazy(a[i], s, sh), q)
	}
}
