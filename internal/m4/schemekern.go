package m4

import (
	"ringlwe/internal/core"
	"ringlwe/internal/gauss"
	"ringlwe/internal/ntt"
	"ringlwe/internal/rng"
)

// Scheme is the cycle-charged counterpart of core.Scheme. It consumes
// randomness in exactly the same order (sampler pool for error polynomials,
// uniform pool for ã), so given equal sources it produces bit-identical
// keys and ciphertexts — the equivalence tests rely on this. All polynomial
// state moves through the packed kernels, as on the device.
type Scheme struct {
	Params  *core.Params
	Mach    *Machine
	sampler *Sampler
	uniform *BitPool
}

// NewScheme builds a charged scheme context over params and src.
func NewScheme(mach *Machine, params *core.Params, src rng.Source) (*Scheme, error) {
	smp, err := NewSampler(mach, params.Matrix, src, true, gauss.ScanCLZ)
	if err != nil {
		return nil, err
	}
	return &Scheme{
		Params:  params,
		Mach:    mach,
		sampler: smp,
		uniform: NewBitPool(mach, src),
	}, nil
}

// UniformPoly mirrors core.Workspace.UniformPoly with rejection-sampled
// coefficients, charging the draw, compare and store of each.
func (s *Scheme) UniformPoly() ntt.Poly {
	p := s.Params
	out := make(ntt.Poly, p.N)
	w := p.CoeffBits()
	for i := range out {
		for {
			v := s.uniform.Bits(w)
			s.Mach.ALU(1) // compare against q
			if v < p.Q {
				s.Mach.Branch(false)
				out[i] = v
				break
			}
			s.Mach.Branch(true)
		}
		s.Mach.Store(1)
		s.Mach.Loop()
	}
	return out
}

func (s *Scheme) errorPolyPacked() ntt.PackedPoly {
	p := make([]uint32, s.Params.N)
	s.sampler.SamplePoly(p, s.Params.Q)
	return s.Params.Tables.Pack(p)
}

// KeyGen mirrors core.Workspace.GenerateKeys: a freshly drawn ã, two
// error polynomials, two forward NTTs (fused pairwise here would not help;
// the paper fuses only the encryption-side three), one pointwise multiply
// and one subtraction.
func (s *Scheme) KeyGen() (*core.PublicKey, *core.PrivateKey) {
	p := s.Params
	t := p.Tables
	a := s.UniformPoly()

	r1 := s.errorPolyPacked()
	r2 := s.errorPolyPacked()
	ForwardPacked(s.Mach, t, r1)
	ForwardPacked(s.Mach, t, r2)

	ap := t.Pack(a)
	pp := make(ntt.PackedPoly, len(ap))
	PointwiseMulPacked(s.Mach, t, pp, ap, r2)
	SubPacked(s.Mach, t, pp, r1, pp)

	pk := &core.PublicKey{Params: p, A: t.Unpack(ap), P: t.Unpack(pp)}
	sk := &core.PrivateKey{Params: p, R2: t.Unpack(r2)}
	return pk, sk
}

// encodeCharged prices the message encoding: per coefficient one bit
// extract, one conditional select of ⌊q/2⌋ and one halfword store, with a
// message-byte load every eight bits.
func (s *Scheme) encodeCharged(msg []byte) ntt.Poly {
	p := s.Params
	half := p.Q / 2
	out := make(ntt.Poly, p.N)
	for i := 0; i < p.N; i++ {
		if i%8 == 0 {
			s.Mach.Load(1)
		}
		s.Mach.ALU(2)
		s.Mach.Store(1)
		s.Mach.Loop()
		if msg[i/8]>>(i%8)&1 == 1 {
			out[i] = half
		}
	}
	return out
}

// Encrypt mirrors core.Scheme.Encrypt on the packed pipeline: 3n Gaussian
// samples, the fused parallel-3 forward NTT, two pointwise products and
// three additions.
func (s *Scheme) Encrypt(pk *core.PublicKey, msg []byte) *core.Ciphertext {
	p := s.Params
	t := p.Tables

	e1 := s.errorPolyPacked()
	e2 := s.errorPolyPacked()
	e3 := s.errorPolyPacked()

	mbar := t.Pack(s.encodeCharged(msg))
	AddPacked(s.Mach, t, e3, e3, mbar)
	ForwardThreePacked(s.Mach, t, e1, e2, e3)

	ap := t.Pack(pk.A)
	ppk := t.Pack(pk.P)
	c1 := make(ntt.PackedPoly, len(ap))
	c2 := make(ntt.PackedPoly, len(ap))
	PointwiseMulPacked(s.Mach, t, c1, ap, e1)
	AddPacked(s.Mach, t, c1, c1, e2)
	PointwiseMulPacked(s.Mach, t, c2, ppk, e1)
	AddPacked(s.Mach, t, c2, c2, e3)

	return &core.Ciphertext{Params: p, C1: t.Unpack(c1), C2: t.Unpack(c2)}
}

// Decrypt mirrors core.PrivateKey.Decrypt: one pointwise product, one
// addition, one inverse NTT and the threshold decoder.
func (s *Scheme) Decrypt(sk *core.PrivateKey, ct *core.Ciphertext) []byte {
	p := s.Params
	t := p.Tables

	c1 := t.Pack(ct.C1)
	c2 := t.Pack(ct.C2)
	r2 := t.Pack(sk.R2)
	m := make(ntt.PackedPoly, len(c1))
	PointwiseMulPacked(s.Mach, t, m, c1, r2)
	AddPacked(s.Mach, t, m, m, c2)
	InversePacked(s.Mach, t, m)

	poly := t.Unpack(m)
	out := make([]byte, p.MessageBytes())
	for i := 0; i < p.N; i++ {
		// Threshold test 4c ∈ (q, 3q): one shift, two compares, one
		// conditional bit set; store the byte every eight coefficients.
		s.Mach.Load(1)
		s.Mach.ALU(3)
		s.Mach.Loop()
		if i%8 == 7 {
			s.Mach.Store(1)
		}
		c := uint64(poly[i])
		if 4*c > uint64(p.Q) && 4*c < 3*uint64(p.Q) {
			out[i/8] |= 1 << (i % 8)
		}
	}
	return out
}

// Footprint reports the static-table and working-RAM requirements the model
// attributes to each operation. The paper's Table II flash column measures
// code size (constant across parameter sets); our flash column measures the
// constant tables instead (stage twiddles, probability matrix, LUT1/LUT2),
// which is the portion a simulation can account for — EXPERIMENTS.md
// records both. RAM counts the live polynomial buffers of each operation,
// two coefficients per 32-bit word, plus the message buffer.
type Footprint struct {
	FlashTables               int
	RAMKeyGen, RAMEnc, RAMDec int
}

// MeasureFootprint computes the model's memory accounting for params.
func MeasureFootprint(p *core.Params) Footprint {
	polyRAM := 2 * p.N // n halfwords
	stageRoots := 4 * len(p.Tables.StageRoots)
	pmat := 4 * p.Matrix.StoredWords()
	cfg := p.SamplerConfig()
	return Footprint{
		FlashTables: stageRoots + pmat + len(cfg.LUT1) + len(cfg.LUT2),
		// KeyGen: r1, r2, p̃ live simultaneously (ã is the caller's).
		RAMKeyGen: 3 * polyRAM,
		// Encrypt: e1, e2, e3, m̄, c̃1, c̃2 plus the message bytes.
		RAMEnc: 6*polyRAM + p.MessageBytes(),
		// Decrypt: the accumulator and the two ciphertext halves, plus the
		// decoded message.
		RAMDec: 3*polyRAM + p.MessageBytes(),
	}
}
