package sampler

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"ringlwe/internal/cacheline"
	"ringlwe/internal/gauss"
	"ringlwe/internal/rng"
)

// wideEngine is the "wide-ky" backend: Knuth-Yao restructured for a 64-bit
// software pipeline, sixteen coefficients per pass. Each 64-bit probe word
// carries eight LUT-1 byte probes whose results pack back into one word,
// so a single SWAR mask tests all eight for failure. Two independent probe
// words are in flight at once, so the sixteen LUT-1 gathers of a batch
// form two dependency chains the CPU can overlap instead of one — the
// out-of-order window hides most of the second word's latency behind the
// first.
//
// A batch spends twenty random bytes: two 64-bit probe words and one
// 32-bit sign word. The probe bytes are not drawn through the bit pool: a
// LUT-1 probe needs eight uniform bits and a source word supplies
// thirty-two, so the pool's shift-and-carry bookkeeping (the price of
// bit-exact scalar equivalence, which no KAT demands of this backend) is
// pure overhead here. Nor are they drawn a word at a time: SamplePolyInto
// takes the bytes of up to wideChunk batches from the source in one
// rng.FillWords call into an engine-owned buffer, which a CryptoSource
// serves with one copy out of its keystream, and the batch reads its
// words from there with plain loads. Each bulk draw is exactly what its
// batches consume, so nothing is read ahead across calls.
//
// Every batch stores all sixteen lanes through the negation table, then
// revisits only the lanes LUT-1 failed (≈2.2% of coefficients at the
// paper's σ), in lane order: each is finished by the serial LUT-2 probe
// and residual clz walk, fed from the bit pool, and overwritten. A
// resolved magnitude may exceed the table's seven bits (a custom σ can
// give hundreds of rows), so that lane is folded with gauss.CondNeg.
//
// The distribution is exactly the scalar sampler's — identical tables,
// identical walk — but the randomness-to-coefficient assignment differs
// from "knuth-yao", so outputs are compared statistically (chi-square,
// tail bound), never bit-wise. The engine's counters sit between
// cache-line pads (see package cacheline).
type wideEngine struct {
	_   cacheline.Pad
	mat *gauss.Matrix
	// lut1 is the 256-entry LUT-1 as an array, so a byte-masked probe
	// needs no bounds check (and the engine one slice header less).
	lut1       *[256]uint8
	lut2       []uint8
	lut2DRange int

	src rng.Source
	// pool feeds only the failure path; it stays empty (and the source
	// untouched by it) until the first LUT-1 miss.
	pool *bitPool64
	// bitFn feeds the residual walk one bit at a time from the pool;
	// bound once at construction so the rare path stays allocation-free.
	bitFn func() uint32

	// negTab maps a resolved LUT-1 byte plus a sign bit (bit 7) straight
	// to the mod-q residue: negTab[m] = m, negTab[0x80|m] = q−m (0 for
	// m = 0). One table load replaces the per-lane branchless negation
	// arithmetic on the sixteen-lane store. Rebuilt when q changes.
	negTab [256]uint32
	negQ   uint32

	// rand holds the random bytes of one chunk of batches, refilled by
	// one bulk draw per chunk.
	rand [wideChunk * wideBatchBytes]byte

	stats Stats
	_     cacheline.Pad
}

const (
	// wideBatch is how many coefficients one pass resolves: two 64-bit
	// probe words of eight LUT-1 indexes each.
	wideBatch = 16
	// wideBatchBytes is the randomness one pass consumes: the two probe
	// words and one sign word.
	wideBatchBytes = 20
	// wideChunk is how many batches one bulk draw feeds. Two balances the
	// sources: over one that pays a call per word, the out-of-order
	// window overlaps one chunk's word loop with the previous chunk's
	// LUT work, which a long chunk serialises; a CryptoSource pays one
	// call and one copy per chunk. On a 2-vCPU Xeon, six batches read 8%
	// slower per polynomial over Xorshift128 and one batch 5% slower on
	// the P1 KEM pair. The engine, buffer included, stays in the
	// allocation size class it had without one (TestWideEngineSizeClass).
	wideChunk = 2
)

// failFlags has the LUT failure bit (0x80) of every probe lane set.
const failFlags = 0x8080808080808080

func init() {
	Register("wide-ky", func(cfg *Config, src rng.Source) (Engine, error) {
		if cfg.Matrix.Cols < 13 {
			return nil, fmt.Errorf("sampler: wide-ky needs ≥ 13 matrix columns, have %d", cfg.Matrix.Cols)
		}
		if len(cfg.LUT1) != 256 {
			return nil, fmt.Errorf("sampler: wide-ky needs a 256-entry LUT-1, have %d", len(cfg.LUT1))
		}
		e := &wideEngine{
			mat:        cfg.Matrix,
			lut1:       (*[256]uint8)(cfg.LUT1),
			lut2:       cfg.LUT2,
			lut2DRange: cfg.MaxFailD + 1,
			src:        src,
			pool:       &bitPool64{src: src},
		}
		e.bitFn = func() uint32 { return uint32(e.pool.nextBits(1)) }
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

// SamplePolyInto implements Engine: full batches of sixteen, one bulk
// draw per chunk of up to wideChunk batches, then a scalar tail for the
// remainder, each tail coefficient spending one source word on its probe
// and sign.
func (e *wideEngine) SamplePolyInto(dst []uint32, q uint32) {
	if e.negQ != q {
		e.retarget(q)
	}
	i := 0
	for batches := len(dst) / wideBatch; batches > 0; {
		n := min(batches, wideChunk)
		batches -= n
		buf := e.rand[:n*wideBatchBytes]
		rng.FillWords(e.src, buf)
		for ; len(buf) >= wideBatchBytes; buf = buf[wideBatchBytes:] {
			e.sampleBatch(dst[i:i+wideBatch:i+wideBatch], (*[wideBatchBytes]byte)(buf), q)
			i += wideBatch
		}
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

// sampleBatch fills dst[0:16] from twenty random bytes: two 64-bit probe
// words, sixteen LUT-1 lookups repacked into two result words, one sign
// word. All sixteen lanes are stored through the negation table; the
// lanes LUT-1 failed are then resolved and overwritten.
func (e *wideEngine) sampleBatch(dst []uint32, r *[wideBatchBytes]byte, q uint32) {
	_ = dst[15]
	p0 := binary.LittleEndian.Uint64(r[0:8])
	p1 := binary.LittleEndian.Uint64(r[8:16])
	signs := binary.LittleEndian.Uint32(r[16:20])
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

	// Merge each magnitude byte with its sign bit and let the negation
	// table finish the lane in one load. A failed lane stores garbage
	// here and is overwritten below.
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

	f0, f1 := r0&failFlags, r1&failFlags
	e.stats.Samples += wideBatch
	e.stats.LUT1Hits += wideBatch - uint64(bits.OnesCount64(f0)+bits.OnesCount64(f1))
	if f0|f1 != 0 { // ≈30% of batches at the paper's σ
		e.resolveLanes(dst[0:8], r0, f0, signs, q)
		e.resolveLanes(dst[8:16], r1, f1, signs>>8, q)
	}
}

// resolveLanes finishes the LUT-1 failures of one probe word: for each set
// failure flag in fails, in lane order, it resolves the lane's level-8
// distance from the result word r and overwrites dst[lane] with the signed
// residue.
func (e *wideEngine) resolveLanes(dst []uint32, r, fails uint64, signs, q uint32) {
	for ; fails != 0; fails &= fails - 1 {
		k := uint(bits.TrailingZeros64(fails)) / 8
		mag := e.resolveFailure(uint32(r>>(8*k)) & 0x7F)
		dst[k] = gauss.CondNeg(mag, signs>>k&1, q)
	}
}

// resolveFailure finishes a walk LUT-1 left at level-8 distance d — the
// same LUT-2/clz resolution chain as gauss.Sampler, fed from the bit pool.
func (e *wideEngine) resolveFailure(d uint32) uint32 {
	if int(d) < e.lut2DRange {
		r := uint32(e.pool.nextBits(5))
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

// bitPool64 is the word-at-a-time companion of rng.BitPool that feeds the
// wide engine's failure path: it dispenses the exact same bit stream (each
// 32-bit source word contributes its low 31 bits, LSB first, matching the
// scalar pool's sentinel layout), but hands out up to 32 bits per call
// from a 64-bit buffer, so a read never has to straddle a refill. Like the
// scalar pool it sits between cache-line pads.
type bitPool64 struct {
	_   cacheline.Pad
	src rng.Source
	buf uint64 // undispensed bits, LSB first
	n   uint   // number of valid bits in buf

	// refills counts source-word fetches, mirroring rng.BitPool.Refills.
	refills uint64
	_       cacheline.Pad
}

// nextBits returns the next k random bits (0 ≤ k ≤ 32) packed little-endian:
// the first bit of the stream is the least significant bit of the result.
// The stream is bit-identical to k successive rng.BitPool.Bit() calls over
// an identical source (the equivalence test in bitpool_test.go pins this).
func (p *bitPool64) nextBits(k uint) uint64 {
	if k > 32 {
		panic("sampler: nextBits supports at most 32 bits per call")
	}
	for p.n < k {
		// Each refill contributes the 31 payload bits of one source word —
		// the scalar pool's MSB sentinel position carries no entropy there,
		// so it is simply dropped here. n < k ≤ 32 on entry, so at most two
		// refills run (n ≤ 31 before the second) and the buffer tops out at
		// 62 valid bits; it never overflows.
		p.buf |= uint64(p.src.Uint32()&0x7FFFFFFF) << p.n
		p.n += 31
		p.refills++
	}
	v := p.buf & (1<<k - 1)
	p.buf >>= k
	p.n -= k
	return v
}
