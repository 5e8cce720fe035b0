package core

import (
	"fmt"

	"ringlwe/internal/ntt"
)

// The paper's Algorithm 4 packed kernels (two 16-bit coefficients per
// 32-bit word, ntt.Tables.*Packed) are not a registered backend: packing
// around every transform allocates, so no scheme selects them. This test
// package registers them as "packed" so the differential tests that iterate
// ntt.EngineNames (TestEvalXORAcrossEngines) run the whole evaluation path
// through those kernels on every sampler.
func init() {
	ntt.RegisterEngine("packed", newPackedTestEngine)
}

// packedTestEngine routes the transforms through the packed kernels and
// takes everything else (pointwise and coefficient-wise arithmetic) from
// the Barrett reference, which it embeds.
type packedTestEngine struct {
	ntt.Engine
	t *ntt.Tables
}

func newPackedTestEngine(t *ntt.Tables) (ntt.Engine, error) {
	if t.M.BitLen() > 16 {
		return nil, fmt.Errorf("packed kernels need BitLen ≤ 16, got %d", t.M.BitLen())
	}
	ref, err := ntt.NewEngine("barrett", t)
	if err != nil {
		return nil, err
	}
	return &packedTestEngine{Engine: ref, t: t}, nil
}

func (e *packedTestEngine) Name() string { return "packed" }

func (e *packedTestEngine) Forward(a ntt.Poly) {
	p := e.t.Pack(a)
	e.t.ForwardPacked(p)
	copy(a, e.t.Unpack(p))
}

func (e *packedTestEngine) Inverse(a ntt.Poly) {
	p := e.t.Pack(a)
	e.t.InversePacked(p)
	copy(a, e.t.Unpack(p))
}

func (e *packedTestEngine) ForwardThree(a, b, c ntt.Poly) {
	pa, pb, pc := e.t.Pack(a), e.t.Pack(b), e.t.Pack(c)
	e.t.ForwardThreePacked(pa, pb, pc)
	copy(a, e.t.Unpack(pa))
	copy(b, e.t.Unpack(pb))
	copy(c, e.t.Unpack(pc))
}

func (e *packedTestEngine) ForwardInto(dst, src ntt.Poly) {
	copy(dst, src)
	e.Forward(dst)
}

func (e *packedTestEngine) InverseInto(dst, src ntt.Poly) {
	copy(dst, src)
	e.Inverse(dst)
}

func (e *packedTestEngine) MulInto(dst, a, b, scratch ntt.Poly) {
	copy(scratch, b)
	e.ForwardInto(dst, a)
	e.Forward(scratch)
	e.PointwiseMul(dst, dst, scratch)
	e.Inverse(dst)
}
