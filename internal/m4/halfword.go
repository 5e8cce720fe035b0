package m4

import (
	"ringlwe/internal/core"
	"ringlwe/internal/ntt"
)

// Halfword (unpacked) kernels: the de-optimized pipeline with one 16-bit
// coefficient per memory access and no transform fusion. Together with
// ForwardHalfword they let the scheme-level ablation quantify what the
// paper's §III-C/D optimizations buy end to end.

// PointwiseMulHalfword charges c = a ∘ b with per-coefficient accesses.
func PointwiseMulHalfword(m *Machine, t *ntt.Tables, c, a, b ntt.Poly) {
	m.Call()
	for i := range c {
		c[i] = t.M.Mul(a[i], b[i])
		m.Load(2)
		m.ChargeMulRed()
		m.Store(1)
		m.Loop()
	}
}

// AddHalfword charges c = a + b with per-coefficient accesses.
func AddHalfword(m *Machine, t *ntt.Tables, c, a, b ntt.Poly) {
	m.Call()
	for i := range c {
		c[i] = t.M.Add(a[i], b[i])
		m.Load(2)
		m.ChargeAddRed()
		m.Store(1)
		m.Loop()
	}
}

// EncryptHalfword is Encrypt with every §III-C/D optimization disabled:
// halfword memory accesses and three separate forward transforms. Same
// ciphertext, different bill — the end-to-end ablation.
func (s *Scheme) EncryptHalfword(pk *core.PublicKey, msg []byte) *core.Ciphertext {
	p := s.Params
	t := p.Tables

	e1 := make(ntt.Poly, p.N)
	s.sampler.SamplePoly(e1, p.Q)
	e2 := make(ntt.Poly, p.N)
	s.sampler.SamplePoly(e2, p.Q)
	e3 := make(ntt.Poly, p.N)
	s.sampler.SamplePoly(e3, p.Q)

	mbar := s.encodeCharged(msg)
	AddHalfword(s.Mach, t, e3, e3, mbar)
	ForwardHalfword(s.Mach, t, e1)
	ForwardHalfword(s.Mach, t, e2)
	ForwardHalfword(s.Mach, t, e3)

	c1 := make(ntt.Poly, p.N)
	c2 := make(ntt.Poly, p.N)
	PointwiseMulHalfword(s.Mach, t, c1, pk.A, e1)
	AddHalfword(s.Mach, t, c1, c1, e2)
	PointwiseMulHalfword(s.Mach, t, c2, pk.P, e1)
	AddHalfword(s.Mach, t, c2, c2, e3)
	return &core.Ciphertext{Params: p, C1: c1, C2: c2}
}
