package sampler

import (
	"math/bits"

	"ringlwe/internal/cacheline"
	"ringlwe/internal/gauss"
	"ringlwe/internal/rng"
)

// cdtEngine is the "cdt" backend: inversion sampling against the 64-bit
// cumulative magnitude table (gauss.NewCDTTable — derived from the same
// exact probabilities as the Knuth-Yao matrix, so the distribution is
// identical). Each coefficient inverts one word-granularity 64-bit uniform
// draw with a fixed-shape branchless binary search: the table is padded to
// a power of two with saturated entries, every sample walks exactly
// log₂(padded size) probes, and each step advances by masked arithmetic
// instead of a data-dependent branch — the constant-time execution the
// paper leaves as future work, traded against the Knuth-Yao backends'
// lower entropy consumption. The engine's counters sit between cache-line
// pads (see package cacheline).
type cdtEngine struct {
	_ cacheline.Pad

	// cum is the cumulative table padded to pow2 length with ^0 entries;
	// rowsMinus1 clamps the (probability 2^-64) saturated lookup.
	cum        []uint64
	half       uint32
	rowsMinus1 uint32

	src  rng.Source
	pool *rng.BitPool

	stats Stats
	_     cacheline.Pad
}

func init() {
	Register("cdt", func(cfg *Config, src rng.Source) (Engine, error) {
		cum := gauss.NewCDTTable(cfg.Matrix)
		p2 := 1
		for p2 < len(cum) {
			p2 <<= 1
		}
		padded := make([]uint64, p2)
		copy(padded, cum)
		for i := len(cum); i < p2; i++ {
			padded[i] = ^uint64(0)
		}
		return &cdtEngine{
			cum:        padded,
			half:       uint32(p2 / 2),
			rowsMinus1: uint32(len(cum) - 1),
			src:        src,
			pool:       rng.NewBitPool(src),
		}, nil
	})
}

// Name implements Engine.
func (e *cdtEngine) Name() string { return "cdt" }

// Stats implements Engine. Inversion has no lookup-table tiers, so only
// Samples advances.
func (e *cdtEngine) Stats() Stats { return e.stats }

// magnitude inverts the CDT for one 64-bit uniform u: the smallest index
// whose cumulative mass exceeds u, i.e. the count of entries ≤ u. The
// search shape is fixed — half, quarter, … probes over the padded table —
// and each advance is a masked add, so the probe count, the instruction
// trace and (up to cache effects on a 512-byte table) the access pattern
// are sample-independent.
func (e *cdtEngine) magnitude(u uint64) uint32 {
	idx := uint32(0)
	for step := e.half; step > 0; step >>= 1 {
		v := e.cum[idx+step-1]
		_, borrow := bits.Sub64(u, v, 0) // borrow = 1 iff u < v
		idx += step & (uint32(borrow) - 1)
	}
	// Clamp the u = 2^64−1 saturation into the last real row, branchlessly.
	t := e.rowsMinus1
	over := -((t - idx) >> 31) // all-ones iff idx > t
	return idx ^ ((idx ^ t) & over)
}

// SamplePolyInto implements Engine: one 64-bit inversion plus one pooled
// sign bit per coefficient.
func (e *cdtEngine) SamplePolyInto(dst []uint32, q uint32) {
	for i := range dst {
		mag := e.magnitude(rng.Uint64(e.src))
		dst[i] = condNeg(mag, e.pool.Bit(), q)
	}
	e.stats.Samples += uint64(len(dst))
}
