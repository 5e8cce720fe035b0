package sampler

import (
	"fmt"
	"math/bits"

	"ringlwe/internal/cacheline"
	"ringlwe/internal/gauss"
	"ringlwe/internal/rng"
	"ringlwe/internal/swar"
)

// batchedEngine is the "batched-ky" backend: Knuth-Yao restructured for a
// 64-bit software pipeline instead of the paper's serial Cortex-M byte
// access. Per pass it draws one 64-bit word from the wide bit pool and
// spends it as eight LUT-1 probes — eight coefficients resolved by eight
// table bytes, packed back into one result word whose 0x80 failure flags
// are tested with a single SWAR mask. Sign bits for the whole batch come
// from one further 8-bit draw and are applied branchlessly. Only the
// failures (≈2.2% of coefficients at the paper's σ) fall back to the
// serial LUT-2 probe and residual clz walk, drawing from the same pool so
// the engine consumes one continuous bit stream.
//
// The distribution is exactly the scalar sampler's — identical tables,
// identical walk — but the randomness-to-coefficient assignment differs
// (probes are drawn batch-first, signs after), so outputs are not
// bit-identical to "knuth-yao"; the differential fuzz target pins the
// statistical agreement instead. The engine's counters sit between
// cache-line pads (see package cacheline).
type batchedEngine struct {
	_          cacheline.Pad
	mat        *gauss.Matrix
	lut1, lut2 []uint8
	lut2DRange int

	pool *swar.BitPool64
	// bitFn feeds the residual walk one bit at a time from the pool;
	// bound once at construction so the rare path stays allocation-free.
	bitFn func() uint32

	stats Stats
	_     cacheline.Pad
}

// batchSize is how many coefficients one probe word resolves: eight 8-bit
// LUT-1 indexes per 64-bit draw.
const batchSize = 8

// failFlags has the LUT failure bit (0x80) of every probe lane set.
const failFlags = 0x8080808080808080

func init() {
	Register("batched-ky", func(cfg *Config, src rng.Source) (Engine, error) {
		if cfg.Matrix.Cols < 13 {
			return nil, fmt.Errorf("sampler: batched-ky needs ≥ 13 matrix columns, have %d", cfg.Matrix.Cols)
		}
		e := &batchedEngine{
			mat:        cfg.Matrix,
			lut1:       cfg.LUT1,
			lut2:       cfg.LUT2,
			lut2DRange: cfg.MaxFailD + 1,
			pool:       swar.NewBitPool64(src),
		}
		e.bitFn = func() uint32 { return uint32(e.pool.NextBits(1)) }
		return e, nil
	})
}

// Name implements Engine.
func (e *batchedEngine) Name() string { return "batched-ky" }

// Stats implements Engine.
func (e *batchedEngine) Stats() Stats { return e.stats }

// SamplePolyInto implements Engine: full batches of eight, then a scalar
// tail for lengths that are not a multiple of eight.
func (e *batchedEngine) SamplePolyInto(dst []uint32, q uint32) {
	i := 0
	for ; i+batchSize <= len(dst); i += batchSize {
		e.sampleBatch(dst[i:i+batchSize:i+batchSize], q)
	}
	for ; i < len(dst); i++ {
		e.stats.Samples++
		probe := e.pool.NextBits(8)
		b := e.lut1[probe]
		mag := uint32(b & 0x7F)
		if b&0x80 == 0 {
			e.stats.LUT1Hits++
		} else {
			mag = e.resolveFailure(mag)
		}
		dst[i] = condNeg(mag, uint32(e.pool.NextBits(1)), q)
	}
}

// sampleBatch fills dst[0:8]: one 64-bit probe draw, eight LUT-1 lookups
// repacked into one word, one SWAR failure test, one 8-bit sign draw.
func (e *batchedEngine) sampleBatch(dst []uint32, q uint32) {
	_ = dst[7]
	probes := e.pool.NextBits(32) | e.pool.NextBits(32)<<32
	lut1 := e.lut1
	res := uint64(lut1[probes&0xFF]) |
		uint64(lut1[probes>>8&0xFF])<<8 |
		uint64(lut1[probes>>16&0xFF])<<16 |
		uint64(lut1[probes>>24&0xFF])<<24 |
		uint64(lut1[probes>>32&0xFF])<<32 |
		uint64(lut1[probes>>40&0xFF])<<40 |
		uint64(lut1[probes>>48&0xFF])<<48 |
		uint64(lut1[probes>>56])<<56
	signs := uint32(e.pool.NextBits(8))
	e.stats.Samples += batchSize

	fails := res & failFlags
	if fails == 0 {
		// The common case (≈83.5% of batches): every lane resolved by
		// LUT-1, magnitudes are the result bytes.
		e.stats.LUT1Hits += batchSize
		for k := 0; k < batchSize; k++ {
			dst[k] = condNeg(uint32(res>>(8*k))&0x7F, signs>>k&1, q)
		}
		return
	}
	e.stats.LUT1Hits += batchSize - uint64(bits.OnesCount64(fails))
	for k := 0; k < batchSize; k++ {
		b := uint32(res>>(8*k)) & 0xFF
		mag := b & 0x7F
		if b&0x80 != 0 {
			mag = e.resolveFailure(mag)
		}
		dst[k] = condNeg(mag, signs>>k&1, q)
	}
}

// resolveFailure finishes a walk LUT-1 left at level-8 distance d: the
// LUT-2 probe, then the residual clz walk for the few survivors — the same
// resolution chain as gauss.Sampler, fed from the wide pool.
func (e *batchedEngine) resolveFailure(d uint32) uint32 {
	if int(d) < e.lut2DRange {
		r := uint32(e.pool.NextBits(5))
		b := e.lut2[d*32+r]
		if b&0x80 == 0 {
			e.stats.LUT2Hits++
			return uint32(b)
		}
		e.stats.ScanResolved++
		return e.mat.ResumeWalk(13, uint32(b&0x7F), e.bitFn)
	}
	e.stats.ScanResolved++
	return e.mat.ResumeWalk(8, d, e.bitFn)
}
