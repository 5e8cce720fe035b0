package core

import (
	"errors"
	"fmt"

	"ringlwe/internal/cacheline"
	"ringlwe/internal/ntt"
	"ringlwe/internal/rng"
	"ringlwe/internal/sampler"
)

// Workspace is the per-goroutine mutable half of a Scheme: a private
// Gaussian sampler engine (the scheme's selected backend, sharing the
// immutable probability matrix and lookup tables), a private uniform bit
// pool over a forked randomness source, and preallocated scratch
// polynomials sized for the encrypt path. Steady-state
// EncryptInto/DecryptInto perform no heap allocation.
//
// A Workspace is not safe for concurrent use; create one per goroutine with
// Scheme.NewWorkspace (cheap: the heavy tables are shared). Its fields sit
// between cache-line pads, as do the sampler, bit pools and source it
// owns, so no two workspaces' state shares a cache line (see package
// cacheline).
type Workspace struct {
	_       cacheline.Pad
	scheme  *Scheme
	sampler sampler.Engine
	uniform *rng.BitPool

	// Scratch polynomials: the three error polynomials of one encryption.
	// DecryptInto reuses e1 as its accumulator.
	e1, e2, e3 ntt.Poly

	// flushed snapshots the sampler counters at the last flushStats, so
	// aggregation adds only the delta.
	flushed sampler.Stats

	_ cacheline.Pad
}

// newWorkspace builds a workspace drawing all randomness from src. The
// construction order (sampler first, then uniform pool) matches the
// historical core.New, and engine construction consumes no source words,
// so deterministic streams are unchanged under the default backend.
func newWorkspace(s *Scheme, src rng.Source) (*Workspace, error) {
	smp, err := sampler.New(s.smp, s.Params.SamplerConfig(), src)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	p := s.Params
	return &Workspace{
		scheme:  s,
		sampler: smp,
		uniform: rng.NewBitPool(src),
		e1:      p.newPoly(),
		e2:      p.newPoly(),
		e3:      p.newPoly(),
	}, nil
}

// flushStats folds the sampler-counter deltas since the last flush into the
// owning Scheme's atomic aggregates. Called at the end of every sampling
// operation, so Scheme.SamplerStats observes a consistent total without
// racing on the per-workspace counters.
func (w *Workspace) flushStats() {
	now := w.sampler.Stats()
	st := &w.scheme.stats
	st.samples.Add(now.Samples - w.flushed.Samples)
	st.lut1.Add(now.LUT1Hits - w.flushed.LUT1Hits)
	st.lut2.Add(now.LUT2Hits - w.flushed.LUT2Hits)
	st.scans.Add(now.ScanResolved - w.flushed.ScanResolved)
	w.flushed = now
}

// UniformPolyInto fills dst with independent uniform coefficients in [0, q):
// each residue row is uniform mod its channel prime by rejection from
// BitLen-bit strings (no modulo bias), which by CRT is exactly uniform
// over the composite ring.
func (w *Workspace) UniformPolyInto(dst ntt.Poly) {
	p := w.scheme.Params
	if len(dst) != p.polyLen() {
		panic("core: UniformPolyInto length mismatch")
	}
	b := p.Basis
	for i, qi := range b.Moduli {
		bits := b.Mods[i].BitLen()
		row := p.row(dst, i)
		for j := range row {
			for {
				v := w.uniform.Bits(bits)
				if v < qi {
					row[j] = v
					break
				}
			}
		}
	}
}

// UniformPoly allocates and samples a fresh uniform polynomial.
func (w *Workspace) UniformPoly() ntt.Poly {
	out := w.scheme.Params.newPoly()
	w.UniformPolyInto(out)
	return out
}

// errorPolyInto fills dst with one X_σ error polynomial through the
// scheme's selected sampler backend: the sampler draws the signed values
// once, reduced mod q₁ into row 0 (negatives as q₁−|e|), then each further
// row re-reduces the same signed value mod its own channel prime. Error
// magnitudes are bounded by the sampler's tail cut (≪ q₁/2), so the sign
// test v > q₁/2 is exact.
func (w *Workspace) errorPolyInto(dst ntt.Poly) {
	p := w.scheme.Params
	b := p.Basis
	row0 := p.row(dst, 0)
	q1 := b.Moduli[0]
	w.sampler.SamplePolyInto(row0, q1)
	half := q1 / 2
	for i := 1; i < b.K; i++ {
		qi := b.Moduli[i]
		row := p.row(dst, i)
		for j, v := range row0 {
			if v > half {
				row[j] = qi - (q1 - v)
			} else {
				row[j] = v
			}
		}
	}
}

// UniformRandom16 returns 16 uniform random bits from the workspace's
// uniform bit pool; higher layers use it for session-key seeds.
func (w *Workspace) UniformRandom16() uint16 {
	return uint16(w.uniform.Bits(16))
}

// FillRandom fills out with uniform random bytes from the workspace's bit
// pool, 16 bits at a time (the KEM seed path).
func (w *Workspace) FillRandom(out []byte) {
	for i := 0; i+1 < len(out); i += 2 {
		v := w.UniformRandom16()
		out[i] = byte(v)
		out[i+1] = byte(v >> 8)
	}
	if len(out)%2 == 1 {
		out[len(out)-1] = byte(w.UniformRandom16())
	}
}

// GenerateKeys creates a key pair under a freshly sampled global ã.
func (w *Workspace) GenerateKeys() (*PublicKey, *PrivateKey, error) {
	a := w.UniformPoly() // already interpreted in the NTT domain
	return w.GenerateKeysShared(a)
}

// GenerateKeysShared creates a key pair under the given NTT-domain ã:
// r̃1 = NTT(r1), r̃2 = NTT(r2), p̃ = r̃1 − ã ∘ r̃2. The returned keys own
// their polynomials; only r1 lives in workspace scratch.
func (w *Workspace) GenerateKeysShared(a ntt.Poly) (*PublicKey, *PrivateKey, error) {
	p := w.scheme.Params
	if len(a) != p.polyLen() {
		return nil, nil, fmt.Errorf("core: ã has %d coefficients, want %d", len(a), p.polyLen())
	}
	r := w.scheme.runner

	r1 := w.e1 // scratch: consumed by the p̃ computation below
	w.errorPolyInto(r1)
	r2 := p.newPoly() // retained as the private key
	w.errorPolyInto(r2)
	r.ForwardAll(r1)
	r.ForwardAll(r2)

	pk := &PublicKey{Params: p, A: append(ntt.Poly(nil), a...), P: p.newPoly()}
	r.MulAll(pk.P, pk.A, r2)
	r.SubAll(pk.P, r1, pk.P) // p̃ = r̃1 − ã∘r̃2

	sk := &PrivateKey{Params: p, R2: r2}
	w.flushStats()
	return pk, sk, nil
}

// EncryptInto produces (c̃1, c̃2) for a MessageBytes-byte message, writing
// into the caller-owned ciphertext (see NewCiphertext). The operation count
// is the paper's §II-C: three error samplings, three forward NTTs (fused),
// two pointwise multiplications and three additions. Steady state it
// allocates nothing.
func (w *Workspace) EncryptInto(ct *Ciphertext, pk *PublicKey, msg []byte) error {
	p := w.scheme.Params
	if pk.Params != p {
		return errors.New("core: public key parameter set mismatch")
	}
	if ct.Params != p || len(ct.C1) != p.polyLen() || len(ct.C2) != p.polyLen() {
		return errors.New("core: ciphertext buffer parameter set mismatch")
	}
	if len(msg) != p.MessageBytes() {
		return fmt.Errorf("core: message is %d bytes, want %d", len(msg), p.MessageBytes())
	}
	r := w.scheme.runner

	w.errorPolyInto(w.e1)
	w.errorPolyInto(w.e2)
	w.errorPolyInto(w.e3)
	addEncoded(p, w.e3, msg) // e3 + m̄ in the normal domain
	// The three forward transforms of one encryption, fused per channel
	// exactly as the paper's parallel-3 NTT (and the instrumented
	// Cortex-M4F model) fuses them.
	r.ForwardThreeAll(w.e1, w.e2, w.e3)

	r.MulAll(ct.C1, pk.A, w.e1)
	r.AddAll(ct.C1, ct.C1, w.e2) // c̃1 = ã∘ẽ1 + ẽ2
	r.MulAll(ct.C2, pk.P, w.e1)
	r.AddAll(ct.C2, ct.C2, w.e3) // c̃2 = p̃∘ẽ1 + NTT(e3+m̄)
	ct.Addends = 1               // fresh encryption: one noise unit
	w.flushStats()
	return nil
}

// Encrypt is EncryptInto with a freshly allocated ciphertext.
func (w *Workspace) Encrypt(pk *PublicKey, msg []byte) (*Ciphertext, error) {
	ct := NewCiphertext(w.scheme.Params)
	if err := w.EncryptInto(ct, pk, msg); err != nil {
		return nil, err
	}
	return ct, nil
}

// DecryptInto recovers the message into the caller-owned dst buffer
// (MessageBytes long): decode(INTT(c̃1 ∘ r̃2 + c̃2)). Decryption consumes
// no randomness; the workspace only supplies scratch, so this too is
// allocation-free.
func (w *Workspace) DecryptInto(dst []byte, sk *PrivateKey, ct *Ciphertext) error {
	s := w.scheme
	return decryptInto(s.Params, s.runner, dst, w.e1, sk, ct)
}
