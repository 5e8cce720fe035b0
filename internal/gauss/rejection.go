package gauss

import (
	"math"

	"ringlwe/internal/rng"
)

// RejectionSampler is the textbook rejection sampler the paper's related
// work uses ([3] pairs it with the first ring-LWE hardware design): draw a
// uniform candidate x in (-R, R), accept with probability ρ(x) =
// exp(-x²/2σ²). It needs no tables but consumes many random bits and
// rejects most candidates, which is exactly the inefficiency the Knuth-Yao
// sampler removes. Acceptance tests use 53-bit fixed-point thresholds
// (float64 mantissa precision); this is a performance baseline, not the
// production sampler.
type RejectionSampler struct {
	sigma float64
	// bound is the half-open magnitude bound R (same tail cut as the
	// matrix-based samplers).
	bound int32
	// thresholds[x] = ⌊2^53·exp(-x²/2σ²)⌋.
	thresholds []uint64
	pool       *rng.BitPool
	// magBits is the number of bits needed to draw a candidate magnitude.
	magBits uint

	// Attempts and Accepted expose the measured acceptance rate.
	Attempts, Accepted uint64
}

// NewRejectionSampler builds a rejection sampler with the same σ and tail
// bound as the given matrix.
func NewRejectionSampler(m *Matrix, src rng.Source) *RejectionSampler {
	r := &RejectionSampler{
		sigma:      m.Sigma,
		bound:      int32(m.Rows),
		thresholds: make([]uint64, m.Rows),
		pool:       rng.NewBitPool(src),
	}
	for x := 0; x < m.Rows; x++ {
		rho := math.Exp(-float64(x) * float64(x) / (2 * m.Sigma * m.Sigma))
		r.thresholds[x] = uint64(math.Ldexp(rho, 53))
	}
	for 1<<r.magBits < uint32(m.Rows) {
		r.magBits++
	}
	return r
}

// SampleInt draws one signed sample by rejection.
func (r *RejectionSampler) SampleInt() int32 {
	for {
		r.Attempts++
		mag := int32(r.pool.Bits(r.magBits))
		if mag >= r.bound {
			continue
		}
		u := uint64(r.pool.Bits(27)) | uint64(r.pool.Bits(26))<<27
		if u >= r.thresholds[mag] {
			continue
		}
		sign := r.pool.Bit()
		// Resample x = 0 with negative sign so zero is not double-counted:
		// the target assigns mass p₀ to 0, but (0,+) and (0,-) would both
		// map there.
		if mag == 0 && sign == 1 {
			continue
		}
		r.Accepted++
		if sign == 1 {
			return -mag
		}
		return mag
	}
}
