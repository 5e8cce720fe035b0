package ntt

import (
	"fmt"
	"sort"
	"sync"
)

// Engine is a pluggable negacyclic-NTT backend: one strategy for computing
// the transforms and transform-domain products over a fixed Tables. All
// engines compute bit-identical canonical results — they differ only in how
// the modular arithmetic is scheduled — so known answers are engine
// independent and every backend can be differentially checked against the
// Barrett reference and the Naive schoolbook oracle.
//
// Contract: every Poly argument holds canonical residues in [0, q) on entry
// and on return. Engines may ride intermediates in wider "lazy" domains
// internally (the vector engine keeps coefficients in [0, 2q) between
// butterfly stages) but must normalize before returning. Engines are
// immutable after construction and safe for concurrent use, like the Tables
// they wrap; per-call scratch, where needed, is documented by the backend.
type Engine interface {
	// Name returns the registry name of the backend.
	Name() string
	// Tables returns the twiddle tables the engine was built over.
	Tables() *Tables

	// Forward transforms a in place: natural coefficient order in,
	// bit-reversed spectral order out.
	Forward(a Poly)
	// Inverse transforms a in place: bit-reversed spectral order in, natural
	// coefficient order out, n⁻¹ scaling included.
	Inverse(a Poly)
	// ForwardThree applies Forward to a, b and c in one fused pass (the
	// paper's parallel-3 NTT; the encryption hot path).
	ForwardThree(a, b, c Poly)

	// PointwiseMul sets c = a ∘ b; aliasing among arguments is allowed.
	PointwiseMul(c, a, b Poly)

	// Add sets c = a + b coefficient-wise; aliasing is allowed. Because
	// the NTT is linear, adding transform-domain polynomials adds the
	// underlying ring elements — the homomorphic-evaluation hot path.
	Add(c, a, b Poly)
	// Sub sets c = a - b coefficient-wise; aliasing is allowed.
	Sub(c, a, b Poly)
	// ScalarMul sets c = s·a for a scalar s (reduced mod q); aliasing of
	// c and a is allowed.
	ScalarMul(c, a Poly, s uint32)
}

// EngineFactory builds an engine over precomputed tables. Construction may
// fail when the backend's preconditions do not hold (e.g. the vector engine
// needs 4q ≤ 2³¹ and n ≥ 16).
type EngineFactory func(*Tables) (Engine, error)

// DefaultEngine is the backend new schemes select when none is requested:
// the fastest one that is differentially verified against the Barrett
// reference in this package's tests.
const DefaultEngine = "vector"

// ResolveEngine names the backend a request for name builds over tabs (one
// table per residue channel; every channel gets the same backend). An
// explicit name is returned verbatim, so a backend that refuses the tables
// fails loudly in NewEngine. "" and "auto" resolve to DefaultEngine where
// its kernels accept every table, and to "barrett", which accepts every
// table, otherwise (n < 16, or 4q > 2³¹).
func ResolveEngine(name string, tabs ...*Tables) string {
	if name != "" && name != "auto" {
		return name
	}
	for _, t := range tabs {
		if vectorRefuses(t) != nil {
			return "barrett"
		}
	}
	return DefaultEngine
}

var (
	engineMu  sync.RWMutex
	engineReg = map[string]EngineFactory{}
)

// RegisterEngine makes a backend available under name. It panics on a
// duplicate name: backends are registered from init functions, where a
// collision is a programming error.
func RegisterEngine(name string, f EngineFactory) {
	engineMu.Lock()
	defer engineMu.Unlock()
	if _, dup := engineReg[name]; dup {
		panic("ntt: duplicate engine " + name)
	}
	engineReg[name] = f
}

// EngineNames returns the registered backend names, sorted.
func EngineNames() []string {
	engineMu.RLock()
	defer engineMu.RUnlock()
	names := make([]string, 0, len(engineReg))
	for n := range engineReg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NewEngine constructs the named backend over t.
func NewEngine(name string, t *Tables) (Engine, error) {
	engineMu.RLock()
	f, ok := engineReg[name]
	engineMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("ntt: unknown engine %q (registered: %v)", name, EngineNames())
	}
	return f(t)
}

func init() {
	RegisterEngine("barrett", func(t *Tables) (Engine, error) {
		return &barrettEngine{t: t}, nil
	})
}

// barrettEngine is the reference backend: the generic Barrett-reduced
// scalar path of Tables, verbatim. It is the oracle the faster engines are
// differentially tested against.
type barrettEngine struct{ t *Tables }

func (e *barrettEngine) Name() string                  { return "barrett" }
func (e *barrettEngine) Tables() *Tables               { return e.t }
func (e *barrettEngine) Forward(a Poly)                { e.t.Forward(a) }
func (e *barrettEngine) Inverse(a Poly)                { e.t.Inverse(a) }
func (e *barrettEngine) ForwardThree(a, b, c Poly)     { e.t.ForwardThree(a, b, c) }
func (e *barrettEngine) PointwiseMul(c, a, b Poly)     { e.t.PointwiseMul(c, a, b) }
func (e *barrettEngine) Add(c, a, b Poly)              { e.t.Add(c, a, b) }
func (e *barrettEngine) Sub(c, a, b Poly)              { e.t.Sub(c, a, b) }
func (e *barrettEngine) ScalarMul(c, a Poly, s uint32) { e.t.ScalarMul(c, a, s) }
