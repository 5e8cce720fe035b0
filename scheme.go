package ringlwe

import (
	"sync"

	"ringlwe/internal/core"
	"ringlwe/internal/rng"
	"ringlwe/internal/sampler"
)

// Scheme is an encryption context bound to one randomness source and one
// resolved Profile. It implements every capability interface (Encrypter,
// Decrypter, KEM, AuthKEM and the batch variants); consumers should
// usually depend on the narrowest interface that covers their needs.
//
// The one-shot methods (GenerateKeys, Encrypt, Encapsulate, …) run on an
// internal workspace behind one mutex: they are safe for concurrent use,
// but concurrent callers queue on that lock, and only a single goroutine
// sees the deterministic stream the known-answer tests pin. For parallel
// traffic, give each goroutine its own Workspace (see NewWorkspace and
// AcquireWorkspace) or use the batch methods (EncryptBatch,
// EncapsulateBatch, …), which drive a bounded worker pool of pooled
// workspaces internally. Params may always be shared.
type Scheme struct {
	params *Params
	inner  *core.Scheme
	pool   sync.Pool // *Workspace, backing AcquireWorkspace
}

// New returns a Scheme drawing randomness from the operating system CSPRNG,
// or from the WithRandom reader when one is given. Without WithRandom,
// each workspace (and the scheme's own one-shot path) runs its own
// AES-256-CTR keystream, keyed from crypto/rand on its first draw and
// rekeyed every MiB. With no profile options the scheme resolves to the
// "default" profile: vector NTT kernels (sets the vector kernels refuse
// run the barrett path) and the 16-wide "wide-ky" sampler. A WithRandom
// stream samples with wide-ky too; add WithSampler("knuth-yao") to draw
// from it as NewDeterministic and the known-answer vectors do.
func New(p *Params, opts ...Option) *Scheme {
	c := applyOptions(opts, profileDefault.Sampler)
	var src rng.Source
	if c.random != nil {
		src = rng.NewReaderSource(c.random)
	} else {
		src = rng.NewCryptoSource()
	}
	s, err := core.NewWithOptions(p.inner, src, c.coreOptions())
	if err != nil {
		// Construction over validated Params fails only for an unknown or
		// incompatible backend name.
		panic("ringlwe: " + err.Error())
	}
	return newScheme(p, s)
}

// NewDeterministic returns a Scheme with a seeded deterministic generator —
// reproducible, NOT secure. For tests, benchmarks and simulations only.
// Workspaces forked from a deterministic Scheme are themselves
// deterministic (fork order matters, per-workspace streams do not race).
// Engine choice (WithEngine) does not affect the deterministic stream —
// transforms consume no randomness — but sampler choice does; only the
// "knuth-yao" sampler, the default here, reproduces the historical
// streams. WithRandom is ignored: the seed defines the stream.
func NewDeterministic(p *Params, seed uint64, opts ...Option) *Scheme {
	c := applyOptions(opts, sampler.Default)
	s, err := core.NewWithOptions(p.inner, rng.NewXorshift128(seed), c.coreOptions())
	if err != nil {
		panic("ringlwe: " + err.Error())
	}
	return newScheme(p, s)
}

func newScheme(p *Params, inner *core.Scheme) *Scheme {
	s := &Scheme{params: p, inner: inner}
	s.pool.New = func() any { return s.NewWorkspace() }
	return s
}

// Params returns the scheme's parameter set.
func (s *Scheme) Params() *Params { return s.params }

// Profile reports the configuration the scheme resolved to: its backend
// names, with presets recoverable via Profile.Name. The
// round trip New(p, WithProfile(s.Profile())) reconstructs an equivalent
// scheme.
func (s *Scheme) Profile() Profile {
	return Profile{
		Engine:  s.inner.Engine(),
		Sampler: s.inner.Sampler(),
	}
}

// Engine returns the name of the NTT backend this scheme runs on.
func (s *Scheme) Engine() string { return s.inner.Engine() }

// Sampler returns the name of the Gaussian sampler backend this scheme's
// workspaces draw error polynomials from.
func (s *Scheme) Sampler() string { return s.inner.Sampler() }

// SamplerStats exposes the scheme's Gaussian-sampler counters, aggregated
// atomically across every workspace (one-shot, pooled and explicit alike).
// Safe to read concurrently with encrypt traffic.
func (s *Scheme) SamplerStats() (samples, lut1, lut2, scans uint64) {
	return s.inner.SamplerStats()
}

// fillRandom draws bytes from the scheme's randomness source via the
// uniform pool (16 bits at a time; the byte layout lives in
// core.Workspace.FillRandom, shared with the workspace KEM path).
func (s *Scheme) fillRandom(out []byte) { s.inner.FillRandom(out) }
