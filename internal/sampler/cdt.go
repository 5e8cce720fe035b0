package sampler

import (
	"ringlwe/internal/cacheline"
	"ringlwe/internal/gauss"
	"ringlwe/internal/rng"
)

// cdtEngine is the "cdt" backend: inversion sampling through gauss.CDT,
// whose table is derived from the same exact probabilities as the
// Knuth-Yao matrix, so the distribution is identical. Each coefficient
// inverts one word-granularity 64-bit uniform draw with the table's
// fixed-shape branchless search, which is why ConstantTime() samples with
// it, traded against the Knuth-Yao backends' lower entropy consumption.
// The engine's counters sit between cache-line pads (see package
// cacheline).
type cdtEngine struct {
	_ cacheline.Pad

	cdt  gauss.CDT
	src  rng.Source
	pool *rng.BitPool

	stats Stats
	_     cacheline.Pad
}

func init() {
	Register("cdt", func(cfg *Config, src rng.Source) (Engine, error) {
		return &cdtEngine{cdt: gauss.NewCDT(cfg.Matrix), src: src, pool: rng.NewBitPool(src)}, nil
	})
}

// Name implements Engine.
func (e *cdtEngine) Name() string { return "cdt" }

// Stats implements Engine. Inversion has no lookup-table tiers, so only
// Samples advances.
func (e *cdtEngine) Stats() Stats { return e.stats }

// SamplePolyInto implements Engine: one 64-bit inversion plus one pooled
// sign bit per coefficient.
func (e *cdtEngine) SamplePolyInto(dst []uint32, q uint32) {
	for i := range dst {
		mag := e.cdt.Magnitude(rng.Uint64(e.src))
		dst[i] = gauss.CondNeg(mag, e.pool.Bit(), q)
	}
	e.stats.Samples += uint64(len(dst))
}
