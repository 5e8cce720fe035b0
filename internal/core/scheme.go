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
// The one-shot methods (GenerateKeys, Encrypt, UniformPoly, …) run on an
// internal default workspace bound directly to the base source, preserving
// the historical single-threaded behaviour bit for bit. They are safe for
// concurrent use — one mutex serializes them on that workspace — but they
// contend. For parallel throughput, create explicit workspaces with
// NewWorkspace (or borrow pooled ones via Acquire/Release) — those never
// contend: tables are shared read-only, and each workspace owns its
// sampler state, bit pools and scratch.
type Scheme struct {
	Params *Params

	// engs holds the NTT backend of each residue channel, resolved and
	// cached by the basis, so every scheme and every workspace Runner over
	// one basis shares the same immutable instances. All registered
	// engines produce bit-identical results (the KATs hold under any of
	// them); they differ in speed and allocation behaviour.
	engs []ntt.Engine

	// smp is the registry name of the Gaussian sampler backend every
	// workspace of this scheme instantiates. Unlike the NTT engines,
	// sampler backends spend randomness differently, so only the default
	// "knuth-yao" reproduces the historical deterministic streams; the
	// others produce different (equally distributed) error polynomials.
	smp string

	// ctDecode selects the branchless message codec (DecodeConstantTimeInto
	// and AddEncodedConstantTime) on every encrypt/decrypt path of this
	// scheme. The codecs agree bit for bit with the branching ones, so this
	// never changes results — only whether plaintext bits steer branches.
	ctDecode bool

	// src is the base randomness source behind a mutex: the one-shot path
	// draws from it and workspace forking may consume its state, possibly
	// from different goroutines.
	src *rng.LockedSource

	// def serves the legacy one-shot API on the unforked base source;
	// defMu serializes every call into it, since its sampler, bit pools
	// and scratch are single-goroutine state.
	defMu sync.Mutex
	def   *Workspace

	// pool recycles workspaces for the batch worker pool and Acquire.
	pool sync.Pool

	// stats aggregates sampler counters flushed by every workspace. All
	// of them write it, so it sits on cache lines of its own, away from
	// the fields above that they only read.
	_     cacheline.Pad
	stats aggStats
	_     cacheline.Pad
}

// New builds a Scheme over params drawing all randomness from src, running
// every transform through the default NTT engine (ntt.ResolveEngine: the
// vector kernels wherever they accept the tables, shoup elsewhere).
func New(params *Params, src rng.Source) (*Scheme, error) {
	return NewWithEngine(params, src, "")
}

// NewWithEngine is New with an explicit NTT backend selected by registry
// name (see ntt.EngineNames). Engine choice never changes results — only
// how fast they are computed.
func NewWithEngine(params *Params, src rng.Source, engine string) (*Scheme, error) {
	return NewWithEngines(params, src, engine, sampler.Default)
}

// NewWithEngines is New with both pluggable backends chosen explicitly:
// the NTT engine by ntt registry name and the Gaussian sampler by sampler
// registry name (see sampler.Names). The NTT choice never changes bits;
// the sampler choice changes how randomness is spent, so non-default
// samplers yield different — equally valid and equally distributed —
// keys and ciphertexts from the same seed.
func NewWithEngines(params *Params, src rng.Source, engine, smp string) (*Scheme, error) {
	return NewWithOptions(params, src, Options{Engine: engine, Sampler: smp})
}

// Options is the resolved construction configuration of a Scheme: both
// pluggable backend names plus the orthogonal hardening switches. It is
// the seam the public security profiles compile down to.
type Options struct {
	// Engine is the NTT backend registry name (ntt.EngineNames).
	Engine string
	// Sampler is the Gaussian sampler backend registry name (sampler.Names).
	Sampler string
	// ConstantTimeDecode routes every message encode/decode through the
	// branchless codecs of consttime.go. Bit-identical to the branching
	// codecs on all inputs.
	ConstantTimeDecode bool
}

// NewWithOptions is New with the full option set resolved by the caller.
//
// An empty or "auto" engine name resolves by ntt.ResolveEngine: the vector
// kernels where they accept the tables, shoup where they refuse them
// (n < 16, or 4q > 2³¹). An empty or "auto" sampler name resolves to
// sampler.Default. Explicit names always fail loudly.
func NewWithOptions(params *Params, src rng.Source, opts Options) (*Scheme, error) {
	engs, err := params.Basis.ResolveEngines(opts.Engine)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	smpName := opts.Sampler
	if smpName == "" || smpName == "auto" {
		smpName = sampler.Default
	}
	s := &Scheme{
		Params:   params,
		engs:     engs,
		smp:      smpName,
		ctDecode: opts.ConstantTimeDecode,
		src:      rng.NewLockedSource(src),
	}
	def, err := newWorkspace(s, s.src)
	if err != nil {
		return nil, err
	}
	s.def = def
	s.pool.New = func() any {
		ws, err := s.NewWorkspace()
		if err != nil {
			// Workspace construction over a validated Scheme cannot fail.
			panic("core: " + err.Error())
		}
		return ws
	}
	return s, nil
}

// Engine returns the registry name of the NTT backend this scheme runs on
// (shared by every residue channel).
func (s *Scheme) Engine() string { return s.engs[0].Name() }

// Sampler returns the registry name of the Gaussian sampler backend this
// scheme's workspaces draw error polynomials from.
func (s *Scheme) Sampler() string { return s.smp }

// ConstantTimeDecode reports whether this scheme routes message encoding
// and decoding through the branchless constant-time codecs.
func (s *Scheme) ConstantTimeDecode() bool { return s.ctDecode }

// NewWorkspace forks an independent per-goroutine workspace off the
// scheme's base randomness source. Safe to call concurrently with any
// other scheme or workspace operation (the base source is locked); the
// returned workspace itself is single-goroutine.
func (s *Scheme) NewWorkspace() (*Workspace, error) {
	return newWorkspace(s, rng.ForkSource(s.src))
}

// Acquire borrows a workspace from the scheme's internal pool, forking a
// new one when the pool is empty. Pair with Release.
func (s *Scheme) Acquire() *Workspace { return s.pool.Get().(*Workspace) }

// Release returns a workspace obtained from Acquire to the pool. The
// workspace must not be used afterwards.
func (s *Scheme) Release(w *Workspace) {
	if w.scheme == s {
		s.pool.Put(w)
	}
}

// UniformPoly samples a polynomial with independent uniform coefficients in
// [0, q) by rejection from CoeffBits-bit strings (no modulo bias).
func (s *Scheme) UniformPoly() ntt.Poly {
	s.defMu.Lock()
	defer s.defMu.Unlock()
	return s.def.UniformPoly()
}

// GenerateKeys creates a key pair under a freshly sampled global polynomial
// ã. The paper's KeyGeneration(ã) flow with ã as a shared system parameter
// is available via GenerateKeysShared.
func (s *Scheme) GenerateKeys() (*PublicKey, *PrivateKey, error) {
	s.defMu.Lock()
	defer s.defMu.Unlock()
	return s.def.GenerateKeys()
}

// GenerateKeysShared creates a key pair under the given NTT-domain ã:
// r̃1 = NTT(r1), r̃2 = NTT(r2), p̃ = r̃1 − ã ∘ r̃2.
func (s *Scheme) GenerateKeysShared(a ntt.Poly) (*PublicKey, *PrivateKey, error) {
	s.defMu.Lock()
	defer s.defMu.Unlock()
	return s.def.GenerateKeysShared(a)
}

// Encode maps a message of MessageBytes bytes to the polynomial m̄ whose
// coefficient i is ⌊q/2⌋·bit_i (bit i = bit i%8 of byte i/8).
// For K > 1 the offset is added as its residue in every channel.
func Encode(p *Params, msg []byte) (ntt.Poly, error) {
	if len(msg) != p.MessageBytes() {
		return nil, errMessageSize(p, len(msg))
	}
	out := p.newPoly()
	addEncoded(p, out, msg)
	return out, nil
}

// Decode inverts Encode with the threshold test: coefficient c decodes to 1
// iff q/4 < c < 3q/4, i.e. iff c is closer to q/2 than to 0 (mod q).
func Decode(p *Params, m ntt.Poly) []byte {
	out := make([]byte, p.MessageBytes())
	DecodeInto(out, p, m)
	return out
}

// DecodeInto is Decode writing into a caller-owned MessageBytes buffer.
// A one-channel set tests the word-sized coefficient directly; K > 1
// CRT-reconstructs each coefficient first.
func DecodeInto(dst []byte, p *Params, m ntt.Poly) {
	if p.K() > 1 {
		crtDecodeInto(dst, p, m)
		return
	}
	clear(dst)
	for i := 0; i < p.N; i++ {
		c := uint64(m[i])
		if 4*c > uint64(p.Q) && 4*c < 3*uint64(p.Q) {
			dst[i/8] |= 1 << (i % 8)
		}
	}
}

// Encrypt produces (c̃1, c̃2) for a MessageBytes-byte message. It samples
// three error polynomials and performs three forward NTTs, two pointwise
// multiplications and three additions — the paper's §II-C operation count.
func (s *Scheme) Encrypt(pk *PublicKey, msg []byte) (*Ciphertext, error) {
	s.defMu.Lock()
	defer s.defMu.Unlock()
	return s.def.Encrypt(pk, msg)
}

// Decrypt recovers the message: decode(INTT(c̃1 ∘ r̃2 + c̃2)). Wrong keys
// yield random-looking plaintext, not an error; authenticity requires an
// outer integrity layer (see the hybrid KEM example).
func (sk *PrivateKey) Decrypt(ct *Ciphertext) ([]byte, error) {
	m, err := sk.DecryptToPoly(ct)
	if err != nil {
		return nil, err
	}
	return Decode(sk.Params, m), nil
}

// DecryptToPoly returns the pre-decoding polynomial m' = m̄ + noise; the
// failure-rate experiment inspects it directly.
func (sk *PrivateKey) DecryptToPoly(ct *Ciphertext) (ntt.Poly, error) {
	p := sk.Params
	if ct.Params != p {
		return nil, errors.New("core: ciphertext parameter set mismatch")
	}
	// Engine-less: the basis tables' reference kernels, channel by channel.
	m := p.newPoly()
	for i, t := range p.Basis.Tables {
		row := p.row(m, i)
		t.PointwiseMul(row, p.row(ct.C1, i), p.row(sk.R2, i))
		t.Add(row, row, p.row(ct.C2, i))
		t.Inverse(row)
	}
	return m, nil
}

// SamplerStats exposes the scheme's Gaussian sampler counters, aggregated
// atomically across every workspace (the default one-shot workspace, pooled
// batch workers and explicit NewWorkspace instances alike). Safe to read
// concurrently with encrypt traffic.
func (s *Scheme) SamplerStats() (samples, lut1, lut2, scans uint64) {
	return s.stats.samples.Load(), s.stats.lut1.Load(),
		s.stats.lut2.Load(), s.stats.scans.Load()
}

// UniformRandom16 returns 16 uniform random bits from the scheme's uniform
// bit pool; higher layers use it for session-key seeds so that one
// randomness source feeds the whole context.
func (s *Scheme) UniformRandom16() uint16 {
	s.defMu.Lock()
	defer s.defMu.Unlock()
	return s.def.UniformRandom16()
}

// FillRandom fills out with uniform random bytes from the scheme's uniform
// bit pool (the one-shot KEM seed path; workspaces have their own).
func (s *Scheme) FillRandom(out []byte) {
	s.defMu.Lock()
	defer s.defMu.Unlock()
	s.def.FillRandom(out)
}
