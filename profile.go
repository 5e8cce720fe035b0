package ringlwe

import (
	"io"

	"ringlwe/internal/core"
	"ringlwe/internal/ntt"
	"ringlwe/internal/sampler"
)

// Profile is the resolved security/performance configuration of a Scheme:
// which NTT backend transforms run through, which Gaussian sampler
// backend error polynomials come from, and whether the message codec is
// the branchless constant-time one. Profiles compose: start from a preset
// (Fast, Reference, ConstantTime) and override single fields with the
// orthogonal options (WithEngine, WithSampler, WithConstantTimeDecode),
// or hand-assemble one and apply it with WithProfile. Scheme.Profile
// reports the configuration a scheme resolved to.
type Profile struct {
	// Engine is the NTT backend registry name (see Engines). Every engine
	// computes bit-identical transforms; this is purely a speed knob.
	Engine string
	// Sampler is the Gaussian sampler backend registry name (see
	// Samplers). Backends spend randomness differently, so only
	// "knuth-yao" reproduces the historical deterministic streams the
	// known-answer tests pin; ciphertexts from any backend interoperate.
	Sampler string
	// ConstantTimeDecode selects the branchless message codec: no
	// plaintext bit steers a branch or memory index on the encrypt or
	// decrypt path. Bit-identical results, slightly more arithmetic.
	ConstantTimeDecode bool
}

// Preset profile values. The presets are exposed as Options (Fast,
// Reference, ConstantTime); these are the configurations they resolve to.
// profileDefault is what New resolves to with no options over every set
// the vector kernels accept; over any other set the engine falls back to
// shoup (ntt.ResolveEngine).
var (
	profileDefault   = Profile{Engine: ntt.DefaultEngine, Sampler: sampler.Default}
	profileFast      = Profile{Engine: "vector", Sampler: "wide-ky"}
	profileReference = Profile{Engine: "barrett", Sampler: "knuth-yao"}
	profileConstTime = Profile{Engine: "shoup", Sampler: "cdt", ConstantTimeDecode: true}
)

// Name returns the preset label this profile corresponds to — "fast",
// "reference", "constant-time", or "default" for the configuration New
// resolves to when no options are given — and "custom" for any other
// combination.
func (p Profile) Name() string {
	switch p {
	case profileFast:
		return "fast"
	case profileReference:
		return "reference"
	case profileConstTime:
		return "constant-time"
	case profileDefault:
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
	return core.Options{
		Engine:             c.profile.Engine,
		Sampler:            c.profile.Sampler,
		ConstantTimeDecode: c.profile.ConstantTimeDecode,
	}
}

// Option configures optional Scheme behaviour at construction.
type Option func(*config)

func applyOptions(opts []Option) config {
	var c config
	for _, o := range opts {
		o(&c)
	}
	// Zero fields take the defaults. The engine stays empty so core
	// resolves it against the parameter set (ntt.ResolveEngine); the
	// scheme reports the backend it resolved to.
	if c.profile.Sampler == "" {
		c.profile.Sampler = sampler.Default
	}
	return c
}

// Fast selects the throughput preset: the 8-lane "vector" NTT kernels
// plus the 16-coefficient "wide-ky" SWAR Knuth-Yao sampler, on every
// machine (both are portable Go). Deterministic streams differ from the
// default and reference profiles — the sampler spends randomness in word
// gulps — but ciphertexts interoperate freely with keys from any profile.
// Like any explicit engine choice, it fails construction over a set the
// vector kernels refuse (n < 16, or 4q > 2³¹).
func Fast() Option { return WithProfile(profileFast) }

// Reference selects the paper-faithful preset: the generic Barrett NTT
// path plus the serial LUT Knuth-Yao sampler, the pipeline whose
// deterministic streams the known-answer vectors pin bit for bit. Use it
// when reproducing the paper's exact outputs or cross-checking another
// implementation.
func Reference() Option { return WithProfile(profileReference) }

// ConstantTime selects the data-oblivious preset: Shoup NTT kernels, the
// fixed-shape CDT Gaussian sampler (same table probes and arithmetic for
// every sample), and the branchless message codec — no secret bit steers
// a branch or a memory index on the encrypt or decrypt path. Results are
// bit-compatible with every other profile (same distribution, same
// decryption), still at zero steady-state allocations.
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
// butterflies in 8-lane blocks, "shoup" is the scalar Shoup kernel the
// paper's schedule maps onto, and "barrett" the generic reference path.
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
// randomness differently, so only the default "knuth-yao" — the paper's
// serial LUT sampler, the one the known-answer vectors pin — reproduces
// historical deterministic streams; "wide-ky" trades that for ≈3×
// sampling throughput via 64-bit batched LUT probes, and "cdt" trades it
// for a fixed-shape constant-time inversion. Ciphertexts sampled under any
// backend interoperate freely (decryption consumes no randomness).
// Construction panics if the name is not registered.
func WithSampler(name string) Option {
	return func(c *config) { c.profile.Sampler = name }
}

// Samplers lists the registered Gaussian sampler backend names accepted by
// WithSampler.
func Samplers() []string { return sampler.Names() }

// WithConstantTimeDecode routes message encoding and decoding through the
// branchless constant-time codecs without changing the NTT or sampler
// backends. Results are bit-identical to the branching codecs on every
// input; only the instruction trace stops depending on plaintext bits.
// For the fully data-oblivious configuration use the ConstantTime preset,
// which also fixes the sampler's shape.
func WithConstantTimeDecode() Option {
	return func(c *config) { c.profile.ConstantTimeDecode = true }
}

// WithRandom makes New draw all randomness from r instead of the operating
// system CSPRNG — the hook for hardware entropy sources, seeded DRBGs and
// test vectors (re-scoping the entropy-budget concern: a buffered DRBG
// behind an io.Reader decouples sampler backend choice from syscall
// cost). The reader must yield uniformly distributed bytes and never fail;
// a read error is treated as a dead entropy source and panics.
// NewDeterministic ignores this option: its seed defines the stream.
func WithRandom(r io.Reader) Option {
	return func(c *config) { c.random = r }
}
