package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ringlwe/internal/cacheline"
	"ringlwe/internal/ntt"
	"ringlwe/internal/rng"
	"ringlwe/internal/sampler"
)

// PublicKey is (ã, p̃), both in the NTT domain.
type PublicKey struct {
	Params *Params
	A, P   ntt.Poly
}

// PrivateKey is r̃2 in the NTT domain.
type PrivateKey struct {
	Params *Params
	R2     ntt.Poly
}

// Ciphertext is (c̃1, c̃2), both in the NTT domain.
type Ciphertext struct {
	Params *Params
	C1, C2 ntt.Poly

	// Addends counts the fresh-ciphertext noise units accumulated in this
	// ciphertext: 0 for the additive identity (a zeroed ciphertext), 1 for a
	// fresh encryption or a parsed wire blob, and the sum (or scalar-scaled
	// sum) of its inputs after evaluation ops. The evaluation layer refuses
	// to push it past Params.MaxAddends — see ErrNoiseBudget.
	Addends uint64
}

// NewCiphertext returns a zero ciphertext with preallocated polynomial
// buffers, suitable as the destination of Workspace.EncryptInto.
func NewCiphertext(p *Params) *Ciphertext {
	return &Ciphertext{Params: p, C1: p.newPoly(), C2: p.newPoly()}
}

// aggStats accumulates sampler counters across every workspace of a Scheme.
type aggStats struct {
	samples, lut1, lut2, scans atomic.Uint64
}

// Scheme is an encryption context: the immutable shared state (parameters,
// NTT tables, sampler tables — all in Params) plus a base randomness source
// from which per-goroutine Workspaces are forked.
//
// The one-shot methods (GenerateKeys, Encrypt, FillRandom, …) run on an
// internal default workspace bound directly to the base source, preserving
// the historical single-threaded behaviour bit for bit. They are safe for
// concurrent use — one mutex serializes them on that workspace — but they
// contend. DecryptInto, which draws no randomness, takes no lock. For
// parallel throughput, create explicit workspaces with NewWorkspace —
// those never contend: tables and the Runner are shared read-only, and
// each workspace owns its sampler state, bit pools and scratch.
type Scheme struct {
	Params *Params

	// runner runs every ring operation of the scheme and of all its
	// workspaces over the residue channels. Its per-channel engines are
	// resolved and cached by the basis, so every scheme over one basis
	// shares the same immutable instances. All registered engines produce
	// bit-identical results (the KATs hold under any of them); they differ
	// in speed and allocation behaviour.
	runner *ntt.Runner

	// smp is the registry name of the Gaussian sampler backend every
	// workspace of this scheme instantiates. Unlike the NTT engines,
	// sampler backends spend randomness differently, so only the default
	// "knuth-yao" reproduces the historical deterministic streams; the
	// others produce different (equally distributed) error polynomials.
	smp string

	// src is the base randomness source. The default workspace draws from
	// it directly and NewWorkspace forks it (forking may consume its
	// state); both happen under defMu, so src needs no lock of its own.
	src rng.Source

	// def serves the legacy one-shot API on the unforked base source.
	// defMu serializes every call into def and every fork of src, since
	// def's sampler, bit pools and scratch are single-goroutine state. No
	// method that holds defMu may fork: NewWorkspace would deadlock on it.
	defMu sync.Mutex
	def   *Workspace

	// scratch recycles the bare *ntt.Poly accumulators of the one-shot
	// DecryptInto. A miss only allocates: it never forks src.
	scratch sync.Pool

	// stats aggregates sampler counters flushed by every workspace. All
	// of them write it, so it sits on cache lines of its own, away from
	// the fields above that they only read.
	_     cacheline.Pad
	stats aggStats
	_     cacheline.Pad
}

// New builds a Scheme over params drawing all randomness from src, running
// every transform through the default NTT engine (ntt.ResolveEngine: the
// vector kernels wherever they accept the tables, barrett elsewhere).
func New(params *Params, src rng.Source) (*Scheme, error) {
	return NewWithOptions(params, src, Options{})
}

// Options is the resolved construction configuration of a Scheme: both
// pluggable backend names. It is the seam the public security profiles
// compile down to.
type Options struct {
	// Engine is the NTT backend registry name (ntt.EngineNames). Engine
	// choice never changes results — only how fast they are computed.
	Engine string
	// Sampler is the Gaussian sampler backend registry name (sampler.Names).
	// Sampler choice changes how randomness is spent, so non-default
	// samplers yield different — equally valid and equally distributed —
	// keys and ciphertexts from the same seed.
	Sampler string
}

// NewWithOptions is New with the full option set resolved by the caller.
//
// An empty or "auto" engine name resolves by ntt.ResolveEngine: the vector
// kernels where they accept the tables, barrett where they refuse them
// (n < 16, or 4q > 2³¹). An empty or "auto" sampler name resolves to
// sampler.Default. Explicit names always fail loudly.
func NewWithOptions(params *Params, src rng.Source, opts Options) (*Scheme, error) {
	engs, err := params.Basis.ResolveEngines(opts.Engine)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	runner, err := ntt.NewRunner(engs)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	smpName := opts.Sampler
	if smpName == "" || smpName == "auto" {
		smpName = sampler.Default
	}
	s := &Scheme{
		Params: params,
		runner: runner,
		smp:    smpName,
		src:    src,
	}
	def, err := newWorkspace(s, s.src)
	if err != nil {
		return nil, err
	}
	s.def = def
	s.scratch.New = func() any {
		m := params.newPoly()
		return &m
	}
	return s, nil
}

// Engine returns the registry name of the NTT backend this scheme runs on
// (shared by every residue channel).
func (s *Scheme) Engine() string { return s.runner.Engines()[0].Name() }

// Sampler returns the registry name of the Gaussian sampler backend this
// scheme's workspaces draw error polynomials from.
func (s *Scheme) Sampler() string { return s.smp }

// NewWorkspace forks an independent per-goroutine workspace off the
// scheme's base randomness source. Safe to call concurrently with any
// other scheme or workspace operation (the fork holds defMu); the returned
// workspace itself is single-goroutine.
func (s *Scheme) NewWorkspace() (*Workspace, error) {
	s.defMu.Lock()
	src := rng.ForkSource(s.src)
	s.defMu.Unlock()
	return newWorkspace(s, src)
}

// GenerateKeys creates a key pair under a freshly sampled global polynomial
// ã.
func (s *Scheme) GenerateKeys() (*PublicKey, *PrivateKey, error) {
	s.defMu.Lock()
	defer s.defMu.Unlock()
	return s.def.GenerateKeys()
}

// Encrypt produces (c̃1, c̃2) for a MessageBytes-byte message. It samples
// three error polynomials and performs three forward NTTs, two pointwise
// multiplications and three additions — the paper's §II-C operation count.
func (s *Scheme) Encrypt(pk *PublicKey, msg []byte) (*Ciphertext, error) {
	s.defMu.Lock()
	defer s.defMu.Unlock()
	return s.def.Encrypt(pk, msg)
}

// DecryptInto decrypts on the scheme's Runner into the caller-owned
// MessageBytes buffer dst: the one-shot decryption. Decryption consumes no
// randomness, so it takes no lock and forks no workspace, which would move
// a deterministic scheme's stream; its scratch polynomial comes from a
// pool of bare polynomials, so steady state it allocates nothing.
func (s *Scheme) DecryptInto(dst []byte, sk *PrivateKey, ct *Ciphertext) error {
	m := s.scratch.Get().(*ntt.Poly)
	err := decryptInto(s.Params, s.runner, dst, *m, sk, ct)
	s.scratch.Put(m)
	return err
}

// Decrypt recovers the message: decode(INTT(c̃1 ∘ r̃2 + c̃2)). It needs no
// Scheme, so it runs on the basis's default engines; it decodes with the
// same branch-free codec as every scheme. Wrong keys yield random-looking
// plaintext, not an error; authenticity requires an outer integrity layer
// (see the hybrid KEM example).
func (sk *PrivateKey) Decrypt(ct *Ciphertext) ([]byte, error) {
	p := sk.Params
	engs, err := p.Basis.ResolveEngines("")
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	r, err := ntt.NewRunner(engs)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	out := make([]byte, p.MessageBytes())
	if err := decryptInto(p, r, out, p.newPoly(), sk, ct); err != nil {
		return nil, err
	}
	return out, nil
}

// decryptInto is the one decryption routine behind every decrypt and
// decapsulation: it checks the parameters, computes the pre-decoding
// polynomial into scratch on runner r, and decodes it into dst.
func decryptInto(p *Params, r *ntt.Runner, dst []byte, scratch ntt.Poly, sk *PrivateKey, ct *Ciphertext) error {
	if sk.Params != p {
		return errors.New("core: private key parameter set mismatch")
	}
	if ct.Params != p {
		return errors.New("core: ciphertext parameter set mismatch")
	}
	if len(dst) != p.MessageBytes() {
		return fmt.Errorf("core: message buffer is %d bytes, want %d", len(dst), p.MessageBytes())
	}
	decryptPoly(r, scratch, sk, ct)
	// The branch is on the channel count, never on message bits.
	if p.K() > 1 {
		crtDecodeInto(dst, p, scratch)
	} else {
		DecodeInto(dst, p, scratch)
	}
	return nil
}

// decryptPoly writes the pre-decoding polynomial m' = INTT(c̃1 ∘ r̃2 + c̃2),
// the encoded message plus noise, into m.
func decryptPoly(r *ntt.Runner, m ntt.Poly, sk *PrivateKey, ct *Ciphertext) {
	r.MulAll(m, ct.C1, sk.R2)
	r.AddAll(m, m, ct.C2)
	r.InverseAll(m)
}

// SamplerStats exposes the scheme's Gaussian sampler counters, aggregated
// atomically across every workspace (the default one-shot workspace and
// every NewWorkspace instance alike). Safe to read concurrently with
// encrypt traffic.
func (s *Scheme) SamplerStats() (samples, lut1, lut2, scans uint64) {
	return s.stats.samples.Load(), s.stats.lut1.Load(),
		s.stats.lut2.Load(), s.stats.scans.Load()
}

// FillRandom fills out with uniform random bytes from the scheme's uniform
// bit pool (the one-shot KEM seed path; workspaces have their own).
func (s *Scheme) FillRandom(out []byte) {
	s.defMu.Lock()
	defer s.defMu.Unlock()
	s.def.FillRandom(out)
}
