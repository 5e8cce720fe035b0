// Package core implements the ring-LWE public-key encryption scheme of the
// DATE 2015 paper in the NTT-domain formulation it adopts from Roy et al.
// (CHES 2014, [7]): keys and ciphertexts live permanently in the transform
// domain, which reduces encryption to three forward NTTs and decryption to a
// single inverse NTT.
//
// The scheme is the Lyubashevsky-Peikert-Regev (LPR) cryptosystem over
// R_q = Z_q[x]/(x^n + 1):
//
//	KeyGen(ã):   r1, r2 ← X_σ;  p̃ = NTT(r1) − ã ∘ NTT(r2)
//	             public key (ã, p̃), private key NTT(r2)
//	Encrypt:     e1, e2, e3 ← X_σ;  m̄ = encode(m)
//	             c̃1 = ã ∘ NTT(e1) + NTT(e2)
//	             c̃2 = p̃ ∘ NTT(e1) + NTT(e3 + m̄)
//	Decrypt:     m = decode(INTT(c̃1 ∘ r̃2 + c̃2))
//
// Message bits are encoded as 0 or ⌊q/2⌋ and decoded with the threshold
// test q/4 < c < 3q/4. Like the paper (and the underlying LPR scheme), a
// ciphertext decrypts incorrectly with small probability (≈ 10^-5 per
// coefficient at P1); EstimateFailureRate quantifies this and the
// EXPERIMENTS harness measures it.
package core

import (
	"fmt"
	"math"
	"math/big"
	"sync"

	"ringlwe/internal/gauss"
	"ringlwe/internal/ntt"
	"ringlwe/internal/rng"
	"ringlwe/internal/rns"
	"ringlwe/internal/sampler"
	"ringlwe/internal/zq"
)

// Params bundles every precomputed object one parameter set needs: the
// RNS basis with its per-channel Barrett constants and NTT twiddle tables,
// the Knuth-Yao probability matrix and its lookup tables. Params are
// immutable after construction and safe to share between goroutines; the
// stateful objects (samplers, schemes) are created per source.
type Params struct {
	// Name identifies the set in output ("P1", "P2").
	Name string
	// N is the ring dimension. Q is the modulus of a one-channel set and
	// 0 when K > 1, whose composite modulus overflows a word.
	N int
	Q uint32
	// SNum/SDen give the Gaussian parameter s = σ·√(2π) as an exact
	// rational (1131/100 for P1).
	SNum, SDen int64
	// Sigma is the standard deviation of the error distribution.
	Sigma float64

	// Mod and Tables are channel 0's Barrett constants and twiddle tables
	// when K = 1, nil otherwise: views into Basis for the single-modulus
	// consumers (the Cortex-M4 model and the paper's tables).
	Mod    *zq.Modulus
	Tables *ntt.Tables
	Matrix *gauss.Matrix

	// Basis is the residue decomposition every ring operation runs over:
	// one channel for the paper sets P1/P2 and A1, three for B1 (see
	// rns.go).
	Basis *rns.Basis

	// qFloat is the (composite) modulus as a float64 for the Gaussian
	// noise model; for k > 1 it overflows uint32 by design.
	qFloat float64

	lut1, lut2 []uint8
	maxFailD   int

	// maxAddends is the homomorphic-addition budget: the largest number of
	// fresh-ciphertext noise units whose sum still decrypts with
	// per-coefficient failure probability at most evalPerCoeffTarget under
	// the Gaussian model of EstimateAggFailureRate. Computed once at
	// construction; see MaxAddends.
	maxAddends int

	// samplerCfg shares the matrix and LUTs with the pluggable sampler
	// subsystem; every workspace engine of this parameter set reads it.
	samplerCfg *sampler.Config
}

// NewParams validates and precomputes a parameter set over one prime q:
// the one-channel basis of NewRNSParams. lambda is the statistical-distance
// exponent for the sampler tables (the paper uses 90).
func NewParams(name string, n int, q uint32, sNum, sDen int64, lambda int) (*Params, error) {
	return NewRNSParams(name, n, []uint32{q}, sNum, sDen, lambda)
}

// NewRNSParams validates and precomputes a parameter set over the given
// residue primes (each ≡ 1 mod 2n, composite ≤ rns.MaxQBits bits). The
// error distribution depends only on σ, not on the modulus, so the sampler
// tables are the same for every basis.
func NewRNSParams(name string, n int, moduli []uint32, sNum, sDen int64, lambda int) (*Params, error) {
	basis, err := rns.NewBasis(n, moduli)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if n%8 != 0 {
		return nil, fmt.Errorf("core: ring dimension %d must be a multiple of 8 for byte packing", n)
	}
	sigma := (float64(sNum) / float64(sDen)) / math.Sqrt(2*math.Pi)
	rows, cols := gauss.Size(sigma, lambda)
	mat, err := gauss.NewMatrixFromS(sNum, sDen, rows, cols)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	lut1, maxD, err := gauss.BuildLUT1(mat)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	lut2, err := gauss.BuildLUT2(mat, maxD)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	p := &Params{
		Name: name, N: n,
		SNum: sNum, SDen: sDen, Sigma: sigma,
		Matrix: mat,
		Basis:  basis,
		lut1:   lut1, lut2: lut2, maxFailD: maxD,
		samplerCfg: &sampler.Config{Matrix: mat, LUT1: lut1, LUT2: lut2, MaxFailD: maxD},
	}
	if basis.K == 1 {
		p.Q, p.Mod, p.Tables = moduli[0], basis.Mods[0], basis.Tables[0]
	}
	p.qFloat, _ = new(big.Float).SetInt(basis.QBig).Float64()
	p.maxAddends = computeMaxAddends(p)
	return p, nil
}

// SamplerConfig returns the shared immutable state (matrix plus lookup
// tables) the pluggable sampler backends are constructed over.
func (p *Params) SamplerConfig() *sampler.Config { return p.samplerCfg }

// NewSampler returns a fresh Knuth-Yao sampler (full paper configuration:
// LUTs plus clz scanning) drawing from src, reusing the precomputed tables.
func (p *Params) NewSampler(src rng.Source) (*gauss.Sampler, error) {
	return gauss.NewSampler(p.Matrix, src,
		gauss.WithPrebuiltLUTs(p.lut1, p.lut2, p.maxFailD))
}

// CoeffBits returns the serialized width of the widest residue row (13
// for P1, 14 for P2); each row serializes at its own channel's width, see
// PolyBytes.
func (p *Params) CoeffBits() uint {
	w := uint(0)
	for _, m := range p.Basis.Mods {
		w = max(w, m.BitLen())
	}
	return w
}

// PolyBytes returns the serialized size of one polynomial: the
// concatenation of its byte-aligned residue rows.
func (p *Params) PolyBytes() int {
	total := 0
	for i := 0; i < p.Basis.K; i++ {
		total += p.rowBytes(i)
	}
	return total
}

// MessageBytes returns the plaintext size: one bit per ring coefficient.
func (p *Params) MessageBytes() int { return p.N / 8 }

// EstimateFailureRate returns the analytic per-coefficient and per-message
// decryption failure probabilities under the Gaussian approximation: the
// decryption noise e1·r1 + e2·r2 + e3 has per-coefficient variance
// 2nσ⁴ + σ², and a coefficient fails when the noise magnitude exceeds q/4.
func (p *Params) EstimateFailureRate() (perCoeff, perMessage float64) {
	variance := 2*float64(p.N)*math.Pow(p.Sigma, 4) + p.Sigma*p.Sigma
	std := math.Sqrt(variance)
	t := p.qFloat / 4 / std
	perCoeff = math.Erfc(t / math.Sqrt2) // two-sided tail
	perMessage = 1 - math.Pow(1-perCoeff, float64(p.N))
	return perCoeff, perMessage
}

// evalPerCoeffTarget is the per-coefficient decryption-failure probability a
// full homomorphic aggregation is allowed to reach. It is deliberately looser
// than a fresh ciphertext's rate: aggregation workloads tolerate occasional
// bit flips (and detect gross over-aggregation via ErrNoiseBudget), whereas a
// tighter target would leave P1/P2 with no additive headroom at all.
const evalPerCoeffTarget = 1e-2

// EstimateAggFailureRate generalizes EstimateFailureRate to the sum of
// `units` fresh-ciphertext noise terms: each independent encryption
// contributes e1·r1 + e2·r2 + e3 with per-coefficient variance 2nσ⁴ + σ², so
// the aggregate noise has `units` times that variance and a coefficient
// decodes wrongly when its magnitude exceeds q/4. units = 1 reproduces
// EstimateFailureRate exactly.
func (p *Params) EstimateAggFailureRate(units uint64) (perCoeff, perMessage float64) {
	if units == 0 {
		return 0, 0
	}
	variance := float64(units) * (2*float64(p.N)*math.Pow(p.Sigma, 4) + p.Sigma*p.Sigma)
	std := math.Sqrt(variance)
	t := p.qFloat / 4 / std
	perCoeff = math.Erfc(t / math.Sqrt2) // two-sided tail
	perMessage = 1 - math.Pow(1-perCoeff, float64(p.N))
	return perCoeff, perMessage
}

// MaxAddends returns the additive noise budget of the parameter set: the
// largest number of fresh-ciphertext noise units that may be folded into one
// aggregate while keeping the per-coefficient failure probability at or below
// 1e-2. The evaluation layer refuses (ErrNoiseBudget) to exceed it. The paper
// sets P1 and P2 were not tuned for homomorphic depth and pin at 2; A1 trades
// security margin for ~26 addends.
func (p *Params) MaxAddends() int { return p.maxAddends }

// computeMaxAddends walks the Gaussian tail model up from one addend until
// the per-coefficient failure probability crosses evalPerCoeffTarget. Always
// at least 1 (a fresh ciphertext must be decryptable) and capped at 65535 so
// wire-format counts stay comfortably in range.
func computeMaxAddends(p *Params) int {
	k := 1
	for k < 65535 {
		if pc, _ := p.EstimateAggFailureRate(uint64(k + 1)); pc > evalPerCoeffTarget {
			break
		}
		k++
	}
	return k
}

var (
	p1Once, p2Once, a1Once, b1Once sync.Once
	p1Set, p2Set, a1Set, b1Set     *Params
)

// P1 returns the paper's medium-term security set (n=256, q=7681,
// σ=11.31/√2π). The heavy precomputation runs once per process.
func P1() *Params {
	p1Once.Do(func() {
		p, err := NewRNSParams("P1", 256, []uint32{7681}, 1131, 100, 90)
		if err != nil {
			panic(err)
		}
		p1Set = p
	})
	return p1Set
}

// P2 returns the paper's long-term security set (n=512, q=12289,
// σ=12.18/√2π).
func P2() *Params {
	p2Once.Do(func() {
		p, err := NewRNSParams("P2", 512, []uint32{12289}, 1218, 100, 90)
		if err != nil {
			panic(err)
		}
		p2Set = p
	})
	return p2Set
}

// A1 returns the aggregation-tuned set (n=256, q=12289, σ=8/√2π): P1's ring
// dimension under P2's modulus with a narrower error distribution, giving
// roughly 26 homomorphic addends of budget where the paper sets have 2. The
// narrower σ reduces the concrete security margin relative to P1 — A1 is for
// encrypted-aggregation workloads that need additive depth, not a drop-in P1
// replacement. q = 12289 ≡ 1 (mod 512) keeps every NTT backend applicable.
func A1() *Params {
	a1Once.Do(func() {
		p, err := NewRNSParams("A1", 256, []uint32{12289}, 800, 100, 90)
		if err != nil {
			panic(err)
		}
		a1Set = p
	})
	return a1Set
}

// B1Moduli are the residue primes of the B1 basis: three 29-bit primes,
// each ≡ 1 (mod 2048) so the degree-1024 negacyclic NTT exists per
// channel, and each below the 2²⁹ vector-engine gate (4q ≤ 2³¹) so every
// channel can run the fastest backend. Composite q ≈ 2⁸⁷.
var B1Moduli = []uint32{536856577, 536823809, 536819713}

// B1 returns the big-parameter RNS set (n=1024, k=3 residue channels,
// ~87-bit composite q, σ = P1's 11.31/√2π): the large-modulus tier for
// deep encrypted aggregation. The enormous q/4 decoding margin pushes
// MaxAddends to the 65535 wire-format cap — thousands of homomorphic
// addends where A1 has 26 — and n=1024 keeps the concrete security of the
// larger ring despite the much bigger modulus.
func B1() *Params {
	b1Once.Do(func() {
		p, err := NewRNSParams("B1", 1024, B1Moduli, 1131, 100, 90)
		if err != nil {
			panic(err)
		}
		b1Set = p
	})
	return b1Set
}
