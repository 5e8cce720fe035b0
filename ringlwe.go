// Package ringlwe is a pure-Go implementation of the ring-LWE public-key
// encryption scheme of De Clercq, Roy, Vercauteren and Verbauwhede,
// "Efficient Software Implementation of Ring-LWE Encryption" (DATE 2015):
// the LPR cryptosystem over Z_q[x]/(x^n+1) in the NTT-domain formulation,
// with Knuth-Yao discrete Gaussian sampling accelerated by the paper's
// lookup tables and a negative-wrapped NTT with packed coefficients.
//
// Two parameter sets are provided: P1 (n=256, q=7681, medium-term
// security) and P2 (n=512, q=12289, long-term security). A plaintext is
// n/8 bytes (one bit per ring coefficient).
//
// Like the underlying LPR scheme, decryption fails with small probability
// (≈ 0.8% per 32-byte message at P1); the KEM interface (Encapsulate /
// Decapsulate) carries a confirmation tag so failures are detected and can
// be retried, which is the recommended way to transport keys.
//
//	scheme := ringlwe.New(ringlwe.P1())
//	pub, priv, err := scheme.GenerateKeys()
//	ct, err := scheme.Encrypt(pub, msg)
//	msg, err := scheme.Decrypt(priv, ct)
//
// The API is organized in three layers (API v2):
//
//   - Capability interfaces (Encrypter, Decrypter, KEM, AuthKEM and the
//     batch variants) name each operation family; *Scheme implements all
//     of them and *Workspace the per-goroutine subset, so consumers can
//     depend on the narrowest surface they need.
//   - Security profiles compose a Scheme's backends: Fast (throughput),
//     Reference (the KAT-pinned paper pipeline) and ConstantTime (fully
//     data-oblivious encrypt/decrypt), refined by the orthogonal options
//     WithEngine, WithSampler, WithConstantTimeDecode and WithRandom;
//     Scheme.Profile reports the resolved configuration.
//   - A self-describing wire format: keys, ciphertexts and encapsulation
//     blobs implement encoding.BinaryMarshaler/BinaryAppender/
//     BinaryUnmarshaler with a versioned header carrying a registered
//     parameter-set ID, so ParseAnyPublicKey/ParseAnyCiphertext recover
//     the parameter set from the blob itself. The legacy fixed-size
//     Bytes/Parse* format remains supported.
//
// This package is the reproduction of a research artifact: it is suitable
// for experimentation and benchmarking, not for protecting production
// traffic (the parameters predate the NIST PQC standardization).
package ringlwe

import (
	"fmt"

	"ringlwe/internal/core"
)

// Params identifies a parameter set. Obtain instances from P1, P2 or
// Custom; Params are immutable and safe to share.
type Params struct {
	inner *core.Params
}

// P1 returns the paper's medium-term security set (n=256, q=7681,
// σ=11.31/√2π).
func P1() *Params { return &Params{inner: core.P1()} }

// P2 returns the paper's long-term security set (n=512, q=12289,
// σ=12.18/√2π).
func P2() *Params { return &Params{inner: core.P2()} }

// A1 returns the aggregation-tuned set (n=256, q=12289, σ=8/√2π): P1's ring
// dimension under P2's modulus with a narrower error distribution, trading
// security margin for homomorphic-addition depth — MaxAddends is ~26 where
// the paper sets afford 2. Use it for encrypted-aggregation workloads (see
// Evaluator); prefer P1/P2 for plain encryption.
func A1() *Params { return &Params{inner: core.A1()} }

// B1 returns the large-parameter RNS set (n=1024, k=3 residue channels,
// ~87-bit composite modulus, σ = P1's 11.31/√2π): coefficients live in
// residue number system form, one 29-bit prime channel per row, with CRT
// reconstruction only at decode time. The enormous decoding margin pushes
// MaxAddends into the thousands (it pins at the 65535 wire cap), so B1 is
// the set for deep encrypted aggregation; see the Evaluator. Q reports 0
// for RNS sets — use Moduli and QBits instead.
func B1() *Params { return &Params{inner: core.B1()} }

// CustomRNS builds a non-standard multi-modulus (RNS) parameter set: n a
// power-of-two multiple of 8, and moduli 2–4 distinct word-sized primes,
// each ≡ 1 (mod 2n), whose product is the composite coefficient modulus
// (≤ 120 bits). sNum/sDen set the Gaussian parameter s = σ√(2π) as a
// rational. Intended for experiments; prefer B1. To serialize objects of
// the set self-describingly, claim an ID with RegisterParams.
func CustomRNS(name string, n int, moduli []uint32, sNum, sDen int64) (*Params, error) {
	if len(moduli) < 2 {
		// The basis would accept one prime, but the set would then be
		// Custom's under another name, with IsRNS false.
		return nil, fmt.Errorf("ringlwe: CustomRNS needs 2–4 moduli, got %d; use Custom for a single modulus", len(moduli))
	}
	p, err := core.NewRNSParams(name, n, moduli, sNum, sDen, 90)
	if err != nil {
		return nil, err
	}
	return &Params{inner: p}, nil
}

// Custom builds a non-standard parameter set: n must be a power of two
// multiple of 8, q a prime with q ≡ 1 (mod 2n), and sNum/sDen the Gaussian
// parameter s = σ√(2π) as a rational. Intended for experiments; the two
// standard sets should be preferred. To serialize Custom-set objects in
// the self-describing wire format, claim an ID with RegisterParams.
func Custom(name string, n int, q uint32, sNum, sDen int64) (*Params, error) {
	p, err := core.NewParams(name, n, q, sNum, sDen, 90)
	if err != nil {
		return nil, err
	}
	return &Params{inner: p}, nil
}

// Name returns the parameter set label.
func (p *Params) Name() string { return p.inner.Name }

// N returns the ring dimension.
func (p *Params) N() int { return p.inner.N }

// Q returns the coefficient modulus, or 0 for RNS sets, whose composite
// modulus exceeds a machine word — use Moduli and QBits for those.
func (p *Params) Q() uint32 { return p.inner.Q }

// IsRNS reports whether the set stores coefficients in residue number
// system form (multiple prime channels, composite modulus), as B1 does.
func (p *Params) IsRNS() bool { return p.inner.IsRNS() }

// Moduli returns the residue primes of an RNS set (a copy), ordered as the
// serialized residue rows are; nil for single-modulus sets.
func (p *Params) Moduli() []uint32 {
	if !p.inner.IsRNS() {
		return nil
	}
	out := make([]uint32, len(p.inner.Basis.Moduli))
	copy(out, p.inner.Basis.Moduli)
	return out
}

// QBits returns the bit length of the coefficient modulus — the composite
// product for RNS sets (87 for B1), the single prime's length otherwise.
func (p *Params) QBits() int { return p.inner.Basis.QBits }

// Sigma returns the Gaussian standard deviation.
func (p *Params) Sigma() float64 { return p.inner.Sigma }

// MessageSize returns the plaintext length in bytes.
func (p *Params) MessageSize() int { return p.inner.MessageBytes() }

// CiphertextSize returns the serialized ciphertext length in bytes
// (legacy tagged format; the self-describing format adds wireHeaderSize−1
// bytes of header).
func (p *Params) CiphertextSize() int { return 1 + 2*p.inner.PolyBytes() }

// PublicKeySize returns the serialized public key length in bytes (legacy
// tagged format).
func (p *Params) PublicKeySize() int { return 1 + 2*p.inner.PolyBytes() }

// PrivateKeySize returns the serialized private key length in bytes
// (legacy tagged format).
func (p *Params) PrivateKeySize() int { return 1 + p.inner.PolyBytes() }

// FailureRate returns the analytic decryption-failure estimate
// (per-coefficient, per-message).
func (p *Params) FailureRate() (perBit, perMessage float64) {
	return p.inner.EstimateFailureRate()
}

// MaxAddends returns the additive noise budget: the largest number of
// fresh-ciphertext noise units that may be homomorphically summed while the
// aggregate still decrypts within the modeled 1e-2 per-bit failure target.
// The evaluation layer returns ErrNoiseBudget rather than exceed it. P1 and
// P2 pin at 2; the aggregation-tuned A1 at 26.
func (p *Params) MaxAddends() int { return p.inner.MaxAddends() }

// AggFailureRate returns the analytic decryption-failure estimate for an
// aggregate carrying the given number of noise units (per-bit, per-message);
// units = 1 is FailureRate.
func (p *Params) AggFailureRate(units uint64) (perBit, perMessage float64) {
	return p.inner.EstimateAggFailureRate(units)
}
