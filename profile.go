package ringlwe

import (
	"io"

	"ringlwe/internal/core"
	"ringlwe/internal/ntt"
	"ringlwe/internal/sampler"
)

// Profile is the resolved security/performance configuration of a Scheme:
// which NTT backend transforms run through and which Gaussian sampler
// backend error polynomials come from. The message codec is not part of
// it: every profile encodes and decodes with the same branch-free codec.
// Profiles compose: start from the default or a preset (Reference,
// ConstantTime) and override single fields with the orthogonal options
// (WithEngine, WithSampler), or hand-assemble one and apply it with
// WithProfile. Scheme.Profile reports the configuration a scheme
// resolved to.
type Profile struct {
	// Engine is the NTT backend registry name (see Engines). Every engine
	// computes bit-identical transforms; this is purely a speed knob.
	Engine string
	// Sampler is the Gaussian sampler backend registry name (see
	// Samplers). Backends spend randomness differently, so only
	// "knuth-yao" reproduces the historical deterministic streams the
	// known-answer tests pin; ciphertexts from any backend interoperate.
	// Left empty, it resolves by randomness source: "wide-ky" under New,
	// "knuth-yao" under NewDeterministic.
	Sampler string
}

// Preset profile values. The presets are exposed as Options (Reference,
// ConstantTime; Fast is the default); these are the configurations they
// resolve to. profileDefault is what New resolves to with no options, and
// profileSeeded what NewDeterministic does, over every set the vector
// kernels accept; over any other set the engine falls back to barrett
// (ntt.ResolveEngine). A seeded scheme samples with the serial Knuth-Yao
// because the known-answer vectors pin its stream; an OS-random one has
// no stream to pin and samples with the 16-wide one.
var (
	profileDefault   = Profile{Engine: ntt.DefaultEngine, Sampler: "wide-ky"}
	profileSeeded    = Profile{Engine: ntt.DefaultEngine, Sampler: sampler.Default}
	profileReference = Profile{Engine: "barrett", Sampler: "knuth-yao"}
	profileConstTime = Profile{Engine: "vector", Sampler: "cdt"}
)

// Name returns the preset label this profile corresponds to —
// "reference", "constant-time", or "default" for the configuration New or
// NewDeterministic resolves to when no options are given — and "custom"
// for any other combination.
func (p Profile) Name() string {
	switch p {
	case profileReference:
		return "reference"
	case profileConstTime:
		return "constant-time"
	case profileDefault, profileSeeded:
		return "default"
	}
	return "custom"
}

// config is the construction state the options fold into: a Profile plus
// the orthogonal randomness override.
type config struct {
	profile Profile
	random  io.Reader
}

func (c config) coreOptions() core.Options {
	return core.Options{Engine: c.profile.Engine, Sampler: c.profile.Sampler}
}

// Option configures optional Scheme behaviour at construction.
type Option func(*config)

// applyOptions folds opts over a zero config; an empty sampler then takes
// defaultSampler. The engine stays empty so core resolves it against the
// parameter set (ntt.ResolveEngine); the scheme reports the backend it
// resolved to.
func applyOptions(opts []Option, defaultSampler string) config {
	var c config
	for _, o := range opts {
		o(&c)
	}
	if c.profile.Sampler == "" {
		c.profile.Sampler = defaultSampler
	}
	return c
}

// Fast is an alias for the default: the "vector" NTT kernels wherever
// they accept the set, plus the 16-coefficient "wide-ky" SWAR Knuth-Yao
// sampler, which New already selects. On NewDeterministic it swaps the
// KAT-pinned serial sampler for wide-ky, so seeded streams differ from
// the reference ones (the sampler spends randomness in word gulps), but
// ciphertexts interoperate freely with keys from any profile.
func Fast() Option { return WithProfile(Profile{Sampler: profileDefault.Sampler}) }

// Reference selects the paper-faithful preset: the generic Barrett NTT
// path plus the serial LUT Knuth-Yao sampler, the pipeline whose
// deterministic streams the known-answer vectors pin bit for bit. Use it
// when reproducing the paper's exact outputs or cross-checking another
// implementation.
func Reference() Option { return WithProfile(profileReference) }

// ConstantTime selects the constant-time preset: the vector NTT kernels,
// whose butterflies fold with sign-bit arithmetic and jump only on loop
// control, and the fixed-shape CDT Gaussian sampler (same number of table
// probes and the same arithmetic for every sample). With the branch-free
// message codec every profile shares, no secret bit steers a branch on
// the encrypt or decrypt path, with two exceptions. The CDT search loads
// a table entry at a secret index, so the cache lines it touches (of 8)
// depend on the sample. Decryption over a basis of more than one modulus
// (B1) branches in its CRT decode, until the fixed-point CRT decode lands.
// Results are bit-compatible with every other profile (same distribution,
// same decryption), still at zero steady-state allocations. The engine is
// named, not resolved, so construction panics over a set the vector
// kernels refuse (n < 16, or q > 2²⁹) instead of running a kernel that
// branches on coefficients.
func ConstantTime() Option { return WithProfile(profileConstTime) }

// WithProfile applies a complete Profile, replacing any previously applied
// preset or per-field option. Zero-valued fields resolve to the defaults.
func WithProfile(p Profile) Option {
	return func(c *config) { c.profile = p }
}

// WithEngine selects the NTT backend the scheme's transforms run through,
// by registry name (see Engines). Every backend computes bit-identical
// results — the known-answer vectors hold under all of them — so this is
// purely a speed knob: "vector" (the default) runs the Shoup lazy-reduction
// butterflies in 8-lane blocks, and "barrett" is the generic reference
// path, which also runs every set the vector kernels refuse.
// Construction panics if the name is not registered or the backend
// refuses the parameter set.
func WithEngine(name string) Option {
	return func(c *config) { c.profile.Engine = name }
}

// Engines lists the registered NTT backend names accepted by WithEngine.
func Engines() []string { return ntt.EngineNames() }

// WithSampler selects the discrete-Gaussian sampler backend the scheme's
// workspaces draw error polynomials from, by registry name (see Samplers).
// All backends target the identical distribution, but they spend
// randomness differently, so only "knuth-yao" — the paper's serial LUT
// sampler, the one the known-answer vectors pin and NewDeterministic's
// default — reproduces historical deterministic streams. "wide-ky", New's
// default, trades that for ≈2.6× sampling throughput via 64-bit batched
// LUT probes, and "cdt" trades it for a fixed-shape constant-time
// inversion. To replay a WithRandom stream with the paper's sampler, pin
// it with WithSampler("knuth-yao"). Ciphertexts sampled under any backend
// interoperate freely (decryption consumes no randomness). Construction
// panics if the name is not registered.
func WithSampler(name string) Option {
	return func(c *config) { c.profile.Sampler = name }
}

// Samplers lists the registered Gaussian sampler backend names accepted by
// WithSampler.
func Samplers() []string { return sampler.Names() }

// WithRandom makes New draw all randomness from r instead of the operating
// system CSPRNG — the hook for hardware entropy sources, seeded DRBGs and
// test vectors. The scheme's one-shot path reads r directly. Each
// workspace runs its own AES-256-CTR keystream, keyed from 48 bytes of r
// when the workspace is made and rekeyed every MiB from its own keystream
// (fast key erasure), so it draws as fast as a workspace of New. Like any
// New scheme it samples with "wide-ky" unless WithSampler says otherwise.
// The reader must yield uniformly distributed bytes and never fail; a read
// error is treated as a dead entropy source and panics. NewDeterministic
// ignores this option: its seed defines the stream.
func WithRandom(r io.Reader) Option {
	return func(c *config) { c.random = r }
}
