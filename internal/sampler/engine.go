// Package sampler is the pluggable discrete-Gaussian sampling subsystem:
// the error-distribution analogue of the ntt.Engine registry. One Config —
// the immutable probability matrix and its precomputed lookup tables —
// backs any number of Engine instances, each bound to its own randomness
// source (one per workspace/goroutine, like the scalar samplers before it).
//
// Three backends are registered:
//
//   - "knuth-yao" (Default): the paper's serial LUT sampler, verbatim — it
//     wraps gauss.Sampler, so its randomness consumption and output stream
//     are bit-identical to the historical hot path and every known-answer
//     vector is preserved. Seeded schemes and the FO re-encryption sample
//     with it, and it is the reference oracle the faster backends are
//     differentially and statistically tested against.
//   - "wide-ky": a word-at-a-time Knuth-Yao, sixteen coefficients per
//     pass. The LUT-1 byte probes for eight coefficients ride in one 64-bit
//     probe word, SWAR-tested for failures with a single mask; the probe
//     and sign words of two passes at a time come from the source in one
//     bulk draw (rng.FillWords). Every lane is stored through a negation
//     table, and only the rare residuals (≈2.2% per coefficient) are then
//     resolved in place by the serial LUT-2/scan walk, fed from a 64-bit
//     bit pool (bitPool64). What ringlwe.New selects, whose workspaces
//     draw from AES-256-CTR keystreams (keyed from the OS, or from the
//     WithRandom reader) that serve those bulk draws from their buffers.
//   - "cdt": inversion sampling through gauss.CDT, the module's one CDT
//     inverter: a fixed-shape branchless binary search, with the same
//     number of table probes and the same arithmetic for every sample
//     (the paper's constant-time future-work item). Which table entry
//     each probe loads still depends on the sample.
//
// All backends target the identical distribution (they are built from the
// same exact-probability matrix); they differ in randomness consumption
// pattern and speed, so ciphertexts sampled under different backends
// differ bit-wise but are statistically indistinguishable — the chi-square
// harness in this package pins that.
package sampler

import (
	"fmt"
	"sort"
	"sync"

	"ringlwe/internal/gauss"
	"ringlwe/internal/rng"
)

// Stats is a snapshot of an engine's sampling counters: how many samples
// were drawn and where each was resolved. Backends without lookup tables
// (cdt) leave the resolution counters at zero.
type Stats struct {
	// Samples is the number of coefficients drawn.
	Samples uint64
	// LUT1Hits counts samples resolved by the first lookup table,
	// LUT2Hits by the second, ScanResolved by the residual bit-scan walk.
	LUT1Hits, LUT2Hits, ScanResolved uint64
}

// Config is the immutable shared state every engine of one parameter set
// samples from: the exact probability matrix plus the Algorithm 2 lookup
// tables. Build one per parameter set (NewConfig) and share it freely;
// engines never mutate it.
type Config struct {
	// Matrix is the Knuth-Yao probability matrix (and the exact
	// distribution every backend is validated against).
	Matrix *gauss.Matrix
	// LUT1 and LUT2 are the prebuilt Algorithm 2 tables; MaxFailD is the
	// largest level-8 failure distance LUT2 is indexed by.
	LUT1, LUT2 []uint8
	MaxFailD   int
}

// NewConfig precomputes the lookup tables for m.
func NewConfig(m *gauss.Matrix) (*Config, error) {
	lut1, maxD, err := gauss.BuildLUT1(m)
	if err != nil {
		return nil, err
	}
	lut2, err := gauss.BuildLUT2(m, maxD)
	if err != nil {
		return nil, err
	}
	return &Config{Matrix: m, LUT1: lut1, LUT2: lut2, MaxFailD: maxD}, nil
}

// Engine is one discrete-Gaussian sampling strategy bound to a randomness
// source. Engines are stateful (bit pools, counters) and not safe for
// concurrent use — create one per goroutine from the shared Config, the
// way core.Workspace does.
type Engine interface {
	// Name returns the registry name of the backend.
	Name() string
	// SamplePolyInto fills dst with independent X_σ samples reduced into
	// [0, q): magnitude m with a set sign bit becomes q−m (Algorithm 1
	// line 8). It allocates nothing.
	SamplePolyInto(dst []uint32, q uint32)
	// Stats returns a snapshot of the engine's sampling counters.
	Stats() Stats
}

// Factory builds an engine over cfg drawing randomness from src.
// Construction must not consume src: workspace forking depends on engine
// construction leaving the stream untouched.
type Factory func(cfg *Config, src rng.Source) (Engine, error)

// Default is the backend a core scheme selects when none is requested: the
// serial Knuth-Yao reference, whose stream the known-answer vectors pin.
// ringlwe.NewDeterministic keeps it; ringlwe.New names "wide-ky" instead.
const Default = "knuth-yao"

var (
	regMu sync.RWMutex
	reg   = map[string]Factory{}
)

// Register makes a backend available under name. It panics on a duplicate
// name: backends register from init functions, where a collision is a
// programming error.
func Register(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := reg[name]; dup {
		panic("sampler: duplicate engine " + name)
	}
	reg[name] = f
}

// Names returns the registered backend names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(reg))
	for n := range reg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// New constructs the named backend over cfg, drawing from src.
func New(name string, cfg *Config, src rng.Source) (Engine, error) {
	regMu.RLock()
	f, ok := reg[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("sampler: unknown engine %q (registered: %v)", name, Names())
	}
	return f(cfg, src)
}
