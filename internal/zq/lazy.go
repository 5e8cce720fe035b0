package zq

// Branchless lazy-domain folds for the lane-parallel (vector) kernels.
//
// A scalar kernel reduces with `if x >= bound { x -= bound }`, which
// the compiler may turn into a conditional move but is still one
// flag-consuming operation per value — a pattern that blocks lane-parallel
// code generation, because a per-lane branch (or CMOV chain) serializes
// what should be eight independent lanes. The vector kernels instead fold
// with pure arithmetic on the sign bit of the 32-bit difference, which
// maps onto SIMD compare/mask/add lane operations one to one and lets the
// same Go source serve as the semantic model of a future assembly kernel.
//
// The soundness condition — the "lane-width bound lemma", proven
// exhaustively around every boundary in lazy_test.go — is:
//
//	for bound ≤ 2³¹ and x < 2·bound:  CondSub(x, bound) = x mod' bound
//
// where mod' is the single conditional subtraction (x−bound if x ≥ bound,
// else x). The sign-bit trick needs both cases of the difference x−bound
// to be classified by bit 31: when x ≥ bound the difference is below
// bound ≤ 2³¹ (bit 31 clear), and when x < bound it wraps to at least
// 2³² − bound ≥ 2³¹ (bit 31 set). A butterfly sum u + p of two lazy
// values in [0, 2q) is below 4q, so using CondSub with bound = 2q needs
// 4q ≤ 2³¹, i.e. q ≤ 2²⁹ — the construction gate of the vector NTT
// engine.

// CondSub returns x − bound when x ≥ bound and x unchanged otherwise,
// using only arithmetic on the sign bit of the difference. Requires
// bound ≤ 2³¹ and x < 2·bound (the lane-width bound lemma above);
// outside that range the sign bit no longer classifies the two cases.
func CondSub(x, bound uint32) uint32 {
	d := x - bound
	return d + (bound & uint32(int32(d)>>31))
}

// VectorSafe reports whether the modulus satisfies the vector kernels'
// bound lemma 4q ≤ 2³¹: every butterfly intermediate (sums and 2q-offset
// differences of lazy values, both below 4q) then stays classifiable by
// its sign bit, so CondSub is sound at bound = 2q throughout a transform.
func (m *Modulus) VectorSafe() bool {
	return uint64(4)*uint64(m.Q) <= 1<<31
}
