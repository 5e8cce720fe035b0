package gauss

import (
	"math/big"
	"math/bits"

	"ringlwe/internal/rng"
)

// CDTSampler implements inversion sampling from a cumulative distribution
// table, the classical alternative the paper's §II-B surveys. A 64-bit
// uniform value is looked up in the cumulative table of magnitude
// probabilities (with the zero bucket halved so the sign bit can be applied
// uniformly). Precision is 2^-64 per sample, far beyond what the scheme
// comparison needs. A constant-time lookup is provided as the paper's
// future-work item ("extend our scheme to allow for constant-time
// execution").
type CDTSampler struct {
	// cum[i] is 2^64 · P(|X| ≤ i | table), with the x = 0 mass halved;
	// sampling compares a uniform 64-bit value against the table.
	cum  []uint64
	pool *rng.BitPool
	// ConstantTime selects branchless full-table scans instead of binary
	// search.
	ConstantTime bool
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

// NewCDTSampler derives the cumulative table from the matrix (see
// NewCDTTable) and binds it to a scalar bit pool over src.
func NewCDTSampler(m *Matrix, src rng.Source) *CDTSampler {
	return &CDTSampler{cum: NewCDTTable(m), pool: rng.NewBitPool(src)}
}

func (c *CDTSampler) uniform64() uint64 {
	lo := uint64(c.pool.Bits(22))
	mid := uint64(c.pool.Bits(21))
	hi := uint64(c.pool.Bits(21))
	return lo | mid<<22 | hi<<43
}

// SampleMagnitude draws |x| by inverting the CDT.
func (c *CDTSampler) SampleMagnitude() uint32 {
	u := c.uniform64()
	if c.ConstantTime {
		// Branchless scan: magnitude i is chosen iff cum[i-1] ≤ u < cum[i]
		// (with cum[-1] = 0), so counting entries with cum ≤ u yields the
		// index without data-dependent branches or memory access patterns.
		var idx uint32
		for _, v := range c.cum {
			_, borrow := bits.Sub64(u, v, 0) // borrow = 1 iff u < v
			idx += uint32(1 - borrow)
		}
		if idx >= uint32(len(c.cum)) { // only when u = 2^64-1
			idx = uint32(len(c.cum) - 1)
		}
		return idx
	}
	lo, hi := 0, len(c.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if u < c.cum[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return uint32(lo)
}

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
