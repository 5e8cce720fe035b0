package core

import (
	"errors"

	"ringlwe/internal/rns"
)

// ErrNoiseBudget is returned when an evaluation op would push a ciphertext's
// accumulated noise past Params.MaxAddends, i.e. past the point where the
// aggregate still decrypts within the modeled failure target. The destination
// ciphertext is left unmodified. This turns over-aggregation into a loud
// error instead of a silently corrupted plaintext.
var ErrNoiseBudget = errors.New("core: noise budget exceeded")

// CopyFrom makes ct an exact copy of src, including the noise accounting.
// The polynomial buffers must already have src's dimension.
func (ct *Ciphertext) CopyFrom(src *Ciphertext) {
	ct.Params = src.Params
	copy(ct.C1, src.C1)
	copy(ct.C2, src.C2)
	ct.Addends = src.Addends
}

// Zero resets ct to the additive identity: all-zero polynomials and zero
// accumulated noise. An EvalAddInto chain seeded from a zeroed ciphertext
// computes exactly the sum of what was folded in.
func (ct *Ciphertext) Zero() {
	for i := range ct.C1 {
		ct.C1[i] = 0
	}
	for i := range ct.C2 {
		ct.C2[i] = 0
	}
	ct.Addends = 0
}

// checkEvalArgs validates that every ciphertext of an evaluation op belongs
// to the scheme's parameter set.
func (s *Scheme) checkEvalArgs(cts ...*Ciphertext) error {
	for _, ct := range cts {
		if ct.Params != s.Params {
			return errors.New("core: ciphertext parameter set mismatch")
		}
	}
	return nil
}

// EvalAddInto sets dst = a + b homomorphically: because the NTT is linear,
// the coefficient-wise sums of (c̃1, c̃2) encrypt the sum of the underlying
// plaintext polynomials. Bit-messages therefore decode to the XOR of the
// inputs (q/2 + q/2 ≡ 0 mod q). dst may alias a or b; no allocation. If the
// combined noise would exceed MaxAddends the op returns ErrNoiseBudget and
// leaves dst untouched.
func (s *Scheme) EvalAddInto(dst, a, b *Ciphertext) error {
	if err := s.checkEvalArgs(dst, a, b); err != nil {
		return err
	}
	units := a.Addends + b.Addends
	if units > uint64(s.Params.maxAddends) {
		return ErrNoiseBudget
	}
	s.runner.AddAll(dst.C1, a.C1, b.C1)
	s.runner.AddAll(dst.C2, a.C2, b.C2)
	dst.Addends = units
	return nil
}

// EvalSubInto sets dst = a - b homomorphically. Subtraction accumulates
// noise exactly like addition (the error terms add in magnitude), so it
// charges the same budget. dst may alias a or b.
func (s *Scheme) EvalSubInto(dst, a, b *Ciphertext) error {
	if err := s.checkEvalArgs(dst, a, b); err != nil {
		return err
	}
	units := a.Addends + b.Addends
	if units > uint64(s.Params.maxAddends) {
		return ErrNoiseBudget
	}
	s.runner.SubAll(dst.C1, a.C1, b.C1)
	s.runner.SubAll(dst.C2, a.C2, b.C2)
	dst.Addends = units
	return nil
}

// EvalScalarMulInto sets dst = k·a homomorphically for a public scalar k
// (reduced mod q). The plaintext polynomial is scaled by k mod q — note that
// for the bit encoding only odd k preserve the message (even k annihilate
// q/2 encodings). Noise scales with the *lifted* magnitude of the scalar,
// ĉ = min(k mod q, q − k mod q) over the composite q, and variance grows
// with ĉ², so the op charges a.Addends·ĉ² units. Each channel scales by
// k mod qᵢ. dst may alias a.
func (s *Scheme) EvalScalarMulInto(dst, a *Ciphertext, k uint32) error {
	if err := s.checkEvalArgs(dst, a); err != nil {
		return err
	}
	p := s.Params
	// k < 2³², so only a composite q below 2⁶⁴ can reduce it.
	q := p.Basis.Q128()
	kr := rns.Uint128{Lo: uint64(k)}
	if q.Hi == 0 {
		kr.Lo %= q.Lo
	}
	ch := kr.Lo
	if d := q.Sub(kr); d.Less(kr) {
		ch = d.Lo
	}
	maxU := uint64(p.maxAddends)
	units := uint64(0)
	if c2 := ch * ch; c2 != 0 {
		if a.Addends > maxU/c2 {
			return ErrNoiseBudget
		}
		units = a.Addends * c2
	}
	if units > maxU {
		return ErrNoiseBudget
	}
	s.runner.ScalarMulAll(dst.C1, a.C1, k)
	s.runner.ScalarMulAll(dst.C2, a.C2, k)
	dst.Addends = units
	return nil
}
