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
// Scheme.NewWorkspace (cheap: the heavy tables are shared) or borrow one
// from the Scheme's internal pool via Acquire/Release. Its fields sit
// between cache-line pads, as do the sampler, bit pools and source it
// owns, so no two workspaces' state shares a cache line (see package
// cacheline).
type Workspace struct {
	_       cacheline.Pad
	scheme  *Scheme
	sampler sampler.Engine
	uniform *rng.BitPool

	// runner schedules the per-channel transforms of an RNS scheme (its
	// job slots and WaitGroup are single-caller state, hence per
	// workspace); nil for single-modulus sets.
	runner *ntt.Runner

	// Scratch polynomials: the three error polynomials of one encryption.
	// DecryptInto reuses e1 as its accumulator. errs aliases all three as
	// the reusable ForwardMany batch, so the fused transform takes a
	// workspace-owned slice and stays allocation-free.
	e1, e2, e3 ntt.Poly
	errs       []ntt.Poly

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
	w := &Workspace{
		scheme:  s,
		sampler: smp,
		uniform: rng.NewBitPool(src),
		e1:      p.newPoly(),
		e2:      p.newPoly(),
		e3:      p.newPoly(),
	}
	w.errs = []ntt.Poly{w.e1, w.e2, w.e3}
	if p.IsRNS() {
		w.runner, err = ntt.NewRunner(s.engs)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	return w, nil
}

// Params returns the workspace's parameter set.
func (w *Workspace) Params() *Params { return w.scheme.Params }

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

// UniformPolyInto fills dst with independent uniform coefficients in [0, q)
// by rejection from CoeffBits-bit strings (no modulo bias).
func (w *Workspace) UniformPolyInto(dst ntt.Poly) {
	p := w.scheme.Params
	if len(dst) != p.polyLen() {
		panic("core: UniformPolyInto length mismatch")
	}
	if p.IsRNS() {
		w.rnsUniformPolyInto(dst)
		return
	}
	bits := p.CoeffBits()
	for i := range dst {
		for {
			v := w.uniform.Bits(bits)
			if v < p.Q {
				dst[i] = v
				break
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

// errorPolyInto fills dst with one X_σ error polynomial, reduced mod q,
// through the scheme's selected sampler backend (per residue channel for
// RNS sets).
func (w *Workspace) errorPolyInto(dst ntt.Poly) {
	if w.scheme.Params.IsRNS() {
		w.rnsErrorPolyInto(dst)
		return
	}
	w.sampler.SamplePolyInto(dst, w.scheme.Params.Q)
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
	if p.IsRNS() {
		return w.rnsGenerateKeysShared(a)
	}
	if len(a) != p.N {
		return nil, nil, fmt.Errorf("core: ã has %d coefficients, want %d", len(a), p.N)
	}
	t := p.Tables
	eng := w.scheme.eng

	r1 := w.e1 // scratch: consumed by the p̃ computation below
	w.errorPolyInto(r1)
	r2 := make(ntt.Poly, p.N) // retained as the private key
	w.errorPolyInto(r2)
	eng.Forward(r1)
	eng.Forward(r2)

	pk := &PublicKey{Params: p, A: append(ntt.Poly(nil), a...), P: make(ntt.Poly, p.N)}
	eng.PointwiseMul(pk.P, pk.A, r2)
	t.Sub(pk.P, r1, pk.P) // p̃ = r̃1 − ã∘r̃2

	sk := &PrivateKey{Params: p, R2: r2}
	w.flushStats()
	return pk, sk, nil
}

// addEncoded adds ⌊q/2⌋ to every coefficient whose message bit is set —
// the Encode step fused into the e3 error polynomial, allocation-free.
func addEncoded(p *Params, dst ntt.Poly, msg []byte) {
	half := p.Q / 2
	m := p.Mod
	for i := 0; i < p.N; i++ {
		if msg[i/8]>>(i%8)&1 == 1 {
			dst[i] = m.Add(dst[i], half)
		}
	}
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
	if p.IsRNS() {
		return w.rnsEncryptInto(ct, pk, msg)
	}
	t := p.Tables
	eng := w.scheme.eng

	w.errorPolyInto(w.e1)
	w.errorPolyInto(w.e2)
	w.errorPolyInto(w.e3)
	// e3 + m̄ in the normal domain; the branch is on the scheme's
	// configuration, never on message bits.
	if w.scheme.ctDecode {
		AddEncodedConstantTime(p, w.e3, msg)
	} else {
		addEncoded(p, w.e3, msg)
	}
	// The three forward transforms of one encryption, fused exactly as the
	// paper's parallel NTT (and the instrumented Cortex-M4F model) fuses
	// them — through the generalized batch transform over the
	// workspace-owned slice, so the batch layer's workers amortize the
	// twiddle loads without allocating.
	eng.ForwardMany(w.errs)

	eng.PointwiseMul(ct.C1, pk.A, w.e1)
	t.Add(ct.C1, ct.C1, w.e2) // c̃1 = ã∘ẽ1 + ẽ2
	eng.PointwiseMul(ct.C2, pk.P, w.e1)
	t.Add(ct.C2, ct.C2, w.e3) // c̃2 = p̃∘ẽ1 + NTT(e3+m̄)
	ct.Addends = 1            // fresh encryption: one noise unit
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
	p := w.scheme.Params
	if sk.Params != p {
		return errors.New("core: private key parameter set mismatch")
	}
	if ct.Params != p {
		return errors.New("core: ciphertext parameter set mismatch")
	}
	if len(dst) != p.MessageBytes() {
		return fmt.Errorf("core: message buffer is %d bytes, want %d", len(dst), p.MessageBytes())
	}
	if p.IsRNS() {
		return w.rnsDecryptInto(dst, sk, ct)
	}
	t := p.Tables
	eng := w.scheme.eng
	m := w.e1
	eng.PointwiseMul(m, ct.C1, sk.R2)
	t.Add(m, m, ct.C2)
	eng.Inverse(m)
	if w.scheme.ctDecode {
		DecodeConstantTimeInto(dst, p, m)
	} else {
		DecodeInto(dst, p, m)
	}
	return nil
}
