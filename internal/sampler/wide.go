package sampler

import (
	"fmt"
	"math/bits"

	"ringlwe/internal/cacheline"
	"ringlwe/internal/gauss"
	"ringlwe/internal/rng"
	"ringlwe/internal/swar"
)

// wideEngine is the "wide-ky" backend: batched-ky stretched to sixteen
// coefficients per pass. Two independent 64-bit probe words are in flight
// at once, so the sixteen LUT-1 gathers of a batch form two dependency
// chains the CPU can overlap instead of one — the out-of-order window
// hides most of the second word's latency behind the first. The probe
// words are drawn as raw source words rather than through the bit pool:
// a LUT-1 probe needs eight uniform bits and a full source word supplies
// thirty-two, so the pool's shift-and-carry bookkeeping (the price of
// bit-exact scalar equivalence, which no KAT demands of this backend)
// is pure overhead here. Signs for the whole batch ride in one further
// word. Only LUT-1 failures (≈2.2% of coefficients at the paper's σ)
// touch the bit pool, which feeds the serial LUT-2 probe and residual
// clz walk exactly as in batched-ky.
//
// The distribution is exactly the scalar sampler's — identical tables,
// identical walk — but the randomness-to-coefficient assignment differs
// again from both "knuth-yao" and "batched-ky", so outputs are compared
// statistically (chi-square, tail bound), never bit-wise. The engine's
// counters sit between cache-line pads (see package cacheline).
type wideEngine struct {
	_          cacheline.Pad
	mat        *gauss.Matrix
	lut1, lut2 []uint8
	lut2DRange int

	src rng.Source
	// pool feeds only the failure path; it stays empty (and the source
	// untouched by it) until the first LUT-1 miss.
	pool *swar.BitPool64
	// bitFn feeds the residual walk one bit at a time from the pool;
	// bound once at construction so the rare path stays allocation-free.
	bitFn func() uint32

	// negTab maps a resolved LUT-1 byte plus a sign bit (bit 7) straight
	// to the mod-q residue: negTab[m] = m, negTab[0x80|m] = q−m (0 for
	// m = 0). One table load replaces the per-lane branchless negation
	// arithmetic on the sixteen-lane fast path. Rebuilt when q changes.
	negTab [256]uint32
	negQ   uint32

	stats Stats
	_     cacheline.Pad
}

// wideBatch is how many coefficients one pass resolves: two 64-bit probe
// words of eight LUT-1 indexes each.
const wideBatch = 16

func init() {
	Register("wide-ky", func(cfg *Config, src rng.Source) (Engine, error) {
		if cfg.Matrix.Cols < 13 {
			return nil, fmt.Errorf("sampler: wide-ky needs ≥ 13 matrix columns, have %d", cfg.Matrix.Cols)
		}
		e := &wideEngine{
			mat:        cfg.Matrix,
			lut1:       cfg.LUT1,
			lut2:       cfg.LUT2,
			lut2DRange: cfg.MaxFailD + 1,
			src:        src,
			pool:       swar.NewBitPool64(src),
		}
		e.bitFn = func() uint32 { return uint32(e.pool.NextBits(1)) }
		return e, nil
	})
}

// Name implements Engine.
func (e *wideEngine) Name() string { return "wide-ky" }

// Stats implements Engine.
func (e *wideEngine) Stats() Stats { return e.stats }

// retarget rebuilds the sign/negation table for q. The table is value
// storage inside the engine, so retargeting allocates nothing; in steady
// state (one q per workspace) this runs once.
func (e *wideEngine) retarget(q uint32) {
	for m := uint32(0); m < 128; m++ {
		e.negTab[m] = m
		e.negTab[0x80|m] = q - m
	}
	e.negTab[0x80] = 0
	e.negQ = q
}

// SamplePolyInto implements Engine: full batches of sixteen, then a
// scalar tail for the remainder, each tail coefficient spending one
// source word on its probe and sign.
func (e *wideEngine) SamplePolyInto(dst []uint32, q uint32) {
	if e.negQ != q {
		e.retarget(q)
	}
	i := 0
	for ; i+wideBatch <= len(dst); i += wideBatch {
		e.sampleBatch(dst[i:i+wideBatch:i+wideBatch], q)
	}
	for ; i < len(dst); i++ {
		e.stats.Samples++
		w := e.src.Uint32()
		b := e.lut1[w&0xFF]
		mag := uint32(b & 0x7F)
		if b&0x80 == 0 {
			e.stats.LUT1Hits++
		} else {
			mag = e.resolveFailure(mag)
		}
		dst[i] = gauss.CondNeg(mag, w>>8&1, q)
	}
}

// sampleBatch fills dst[0:16]: four source words become two 64-bit probe
// words, sixteen LUT-1 lookups repacked into two result words, one joint
// SWAR failure test, one sign word.
func (e *wideEngine) sampleBatch(dst []uint32, q uint32) {
	_ = dst[15]
	s := e.src
	p0 := uint64(s.Uint32()) | uint64(s.Uint32())<<32
	p1 := uint64(s.Uint32()) | uint64(s.Uint32())<<32
	signs := s.Uint32()
	lut1 := e.lut1
	r0 := uint64(lut1[p0&0xFF]) |
		uint64(lut1[p0>>8&0xFF])<<8 |
		uint64(lut1[p0>>16&0xFF])<<16 |
		uint64(lut1[p0>>24&0xFF])<<24 |
		uint64(lut1[p0>>32&0xFF])<<32 |
		uint64(lut1[p0>>40&0xFF])<<40 |
		uint64(lut1[p0>>48&0xFF])<<48 |
		uint64(lut1[p0>>56])<<56
	r1 := uint64(lut1[p1&0xFF]) |
		uint64(lut1[p1>>8&0xFF])<<8 |
		uint64(lut1[p1>>16&0xFF])<<16 |
		uint64(lut1[p1>>24&0xFF])<<24 |
		uint64(lut1[p1>>32&0xFF])<<32 |
		uint64(lut1[p1>>40&0xFF])<<40 |
		uint64(lut1[p1>>48&0xFF])<<48 |
		uint64(lut1[p1>>56])<<56
	e.stats.Samples += wideBatch

	fails := (r0 | r1) & failFlags
	if fails == 0 {
		// The common case (≈70% of 16-lane batches): every lane resolved
		// by LUT-1. Merge each magnitude byte with its sign bit and let
		// the negation table finish the lane in one load.
		e.stats.LUT1Hits += wideBatch
		neg := &e.negTab
		dst[0] = neg[uint32(r0)&0x7F|signs<<7&0x80]
		dst[1] = neg[uint32(r0>>8)&0x7F|signs>>1<<7&0x80]
		dst[2] = neg[uint32(r0>>16)&0x7F|signs>>2<<7&0x80]
		dst[3] = neg[uint32(r0>>24)&0x7F|signs>>3<<7&0x80]
		dst[4] = neg[uint32(r0>>32)&0x7F|signs>>4<<7&0x80]
		dst[5] = neg[uint32(r0>>40)&0x7F|signs>>5<<7&0x80]
		dst[6] = neg[uint32(r0>>48)&0x7F|signs>>6<<7&0x80]
		dst[7] = neg[uint32(r0>>56)&0x7F|signs>>7<<7&0x80]
		dst[8] = neg[uint32(r1)&0x7F|signs>>8<<7&0x80]
		dst[9] = neg[uint32(r1>>8)&0x7F|signs>>9<<7&0x80]
		dst[10] = neg[uint32(r1>>16)&0x7F|signs>>10<<7&0x80]
		dst[11] = neg[uint32(r1>>24)&0x7F|signs>>11<<7&0x80]
		dst[12] = neg[uint32(r1>>32)&0x7F|signs>>12<<7&0x80]
		dst[13] = neg[uint32(r1>>40)&0x7F|signs>>13<<7&0x80]
		dst[14] = neg[uint32(r1>>48)&0x7F|signs>>14<<7&0x80]
		dst[15] = neg[uint32(r1>>56)&0x7F|signs>>15<<7&0x80]
		return
	}
	e.stats.LUT1Hits += wideBatch -
		uint64(bits.OnesCount64(r0&failFlags)) -
		uint64(bits.OnesCount64(r1&failFlags))
	for k := 0; k < 8; k++ {
		b := uint32(r0>>(8*k)) & 0xFF
		mag := b & 0x7F
		if b&0x80 != 0 {
			mag = e.resolveFailure(mag)
		}
		dst[k] = gauss.CondNeg(mag, signs>>k&1, q)
	}
	for k := 0; k < 8; k++ {
		b := uint32(r1>>(8*k)) & 0xFF
		mag := b & 0x7F
		if b&0x80 != 0 {
			mag = e.resolveFailure(mag)
		}
		dst[8+k] = gauss.CondNeg(mag, signs>>(8+k)&1, q)
	}
}

// resolveFailure finishes a walk LUT-1 left at level-8 distance d — the
// same LUT-2/clz resolution chain as batched-ky, fed from the bit pool.
func (e *wideEngine) resolveFailure(d uint32) uint32 {
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
