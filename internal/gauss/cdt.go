package gauss

import (
	"math/big"
	"math/bits"

	"ringlwe/internal/rng"
)

// CDT inverts the cumulative distribution table: the classical alternative
// to Knuth-Yao the paper's §II-B surveys, and the only inversion routine
// in the module. A 64-bit uniform value maps to the magnitude whose
// cumulative bucket holds it, at 2^-64 precision per sample, far beyond
// what the scheme comparison needs. The search has a fixed shape: the
// table is padded to a power of two with saturated entries, every lookup
// walks exactly log₂(padded size) probes, and each step advances by masked
// arithmetic instead of a data-dependent branch. Which entry a probe loads
// still depends on the value, so the cache lines touched do too.
type CDT struct {
	// cum is NewCDTTable's table padded to a power-of-two length with ^0
	// entries; rowsMinus1 clamps the (probability 2^-64) saturated lookup.
	cum        []uint64
	half       uint32
	rowsMinus1 uint32
}

// NewCDTTable builds the 64-bit cumulative magnitude table from the same
// exact probabilities the Knuth-Yao matrix is built from: entry i is
// 2^64 · P(|X| ≤ i), with the last entry saturated so lookups never fall
// off the table (the residual tail mass, < 2^-100, folds into the largest
// magnitude). Magnitude i carries its full two-sided mass — the sign bit
// splits it afterwards, and magnitude 0 keeps everything because the sign
// is ignored there — the same convention the Knuth-Yao walk uses, so every
// sampler built over this table targets the identical distribution.
func NewCDTTable(m *Matrix) []uint64 {
	prec := uint(m.Cols) + 96
	scale := new(big.Float).SetPrec(prec).SetMantExp(big.NewFloat(1), 64)
	cum := make([]uint64, m.Rows)
	acc := new(big.Float).SetPrec(prec)
	for i := 0; i < m.Rows; i++ {
		acc.Add(acc, m.probs[i])
		v := new(big.Float).SetPrec(prec).Mul(acc, scale)
		u, _ := v.Uint64()
		cum[i] = u
	}
	cum[m.Rows-1] = ^uint64(0)
	return cum
}

// NewCDT builds the inverter over m's cumulative table (see NewCDTTable).
func NewCDT(m *Matrix) CDT {
	cum := NewCDTTable(m)
	p2 := 1
	for p2 < len(cum) {
		p2 <<= 1
	}
	padded := make([]uint64, p2)
	copy(padded, cum)
	for i := len(cum); i < p2; i++ {
		padded[i] = ^uint64(0)
	}
	return CDT{cum: padded, half: uint32(p2 / 2), rowsMinus1: uint32(len(cum) - 1)}
}

// Magnitude inverts the table for one 64-bit uniform u: the count of
// entries ≤ u, clamped to the last row, which is the smallest magnitude
// whose cumulative mass exceeds u. The probes are half, quarter, … of the
// padded table and each advance is a masked add, so the probe count and
// the instruction trace are the same for every u.
func (t *CDT) Magnitude(u uint64) uint32 {
	idx := uint32(0)
	for step := t.half; step > 0; step >>= 1 {
		v := t.cum[idx+step-1]
		_, borrow := bits.Sub64(u, v, 0) // borrow = 1 iff u < v
		idx += step & (uint32(borrow) - 1)
	}
	// Clamp the u = 2^64−1 saturation into the last real row, branchlessly.
	last := t.rowsMinus1
	over := -((last - idx) >> 31) // all-ones iff idx > last
	return idx ^ ((idx ^ last) & over)
}

// CDTSampler is a scalar signed sampler over CDT: it draws its 64-bit
// uniform value as 22+21+21 bits from a bit pool over src, then one sign
// bit from the same pool.
type CDTSampler struct {
	cdt  CDT
	pool *rng.BitPool
}

// NewCDTSampler builds the inverter over m (see NewCDT) and binds it to a
// scalar bit pool over src.
func NewCDTSampler(m *Matrix, src rng.Source) *CDTSampler {
	return &CDTSampler{cdt: NewCDT(m), pool: rng.NewBitPool(src)}
}

func (c *CDTSampler) uniform64() uint64 {
	lo := uint64(c.pool.Bits(22))
	mid := uint64(c.pool.Bits(21))
	hi := uint64(c.pool.Bits(21))
	return lo | mid<<22 | hi<<43
}

// SampleMagnitude draws |x| by inverting the CDT.
func (c *CDTSampler) SampleMagnitude() uint32 { return c.cdt.Magnitude(c.uniform64()) }

// SampleInt returns one signed sample. The sign bit is always consumed but
// has no effect on magnitude 0, exactly like the Knuth-Yao sampler, so both
// target the identical distribution.
func (c *CDTSampler) SampleInt() int32 {
	mag := int32(c.SampleMagnitude())
	if c.pool.Bit() == 1 {
		return -mag
	}
	return mag
}
