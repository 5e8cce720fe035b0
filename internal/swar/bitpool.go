// Package swar holds BitPool64, the 64-bit-buffered bit pool the "wide-ky"
// sampler feeds its LUT-2 probes and residual walk from.
package swar

import (
	"ringlwe/internal/cacheline"
	"ringlwe/internal/rng"
)

// BitPool64 is the word-at-a-time companion of rng.BitPool: it dispenses the
// exact same bit stream (each 32-bit source word contributes its low 31 bits,
// LSB first, matching the scalar pool's sentinel layout), but hands out up to
// 32 bits per call from a 64-bit buffer, so a read never has to straddle a
// refill.
//
// Not safe for concurrent use, like the scalar pool; like it, it sits
// between cache-line pads (see package cacheline).
type BitPool64 struct {
	_   cacheline.Pad
	src rng.Source
	buf uint64 // undispensed bits, LSB first
	n   uint   // number of valid bits in buf

	// Refills counts source-word fetches, mirroring rng.BitPool.Refills.
	Refills uint64
	_       cacheline.Pad
}

// NewBitPool64 returns an empty pool over src; the first NextBits call
// fetches.
func NewBitPool64(src rng.Source) *BitPool64 {
	return &BitPool64{src: src}
}

// Remaining returns how many buffered bits are available without a refill.
func (p *BitPool64) Remaining() uint { return p.n }

// NextBits returns the next k random bits (0 ≤ k ≤ 32) packed little-endian:
// the first bit of the stream is the least significant bit of the result.
// The stream is bit-identical to k successive rng.BitPool.Bit() calls over
// an identical source (the equivalence test in bitpool_test.go pins this).
func (p *BitPool64) NextBits(k uint) uint64 {
	if k > 32 {
		panic("swar: NextBits supports at most 32 bits per call")
	}
	for p.n < k {
		// Each refill contributes the 31 payload bits of one source word —
		// the scalar pool's MSB sentinel position carries no entropy there,
		// so it is simply dropped here. n < k ≤ 32 on entry, so at most two
		// refills run (n ≤ 31 before the second) and the buffer tops out at
		// 62 valid bits; it never overflows.
		p.buf |= uint64(p.src.Uint32()&0x7FFFFFFF) << p.n
		p.n += 31
		p.Refills++
	}
	v := p.buf & (1<<k - 1)
	p.buf >>= k
	p.n -= k
	return v
}

// Next64 returns the next 64 bits of the stream packed little-endian —
// two NextBits(32) draws fused into one call, bit-identical to 64
// successive scalar Bit() draws. This is the probe front end of the
// 16-wide sampler batch: one call fills a whole 8-probe word, so two
// probe words (16 coefficients) cost four buffer refills and no
// per-probe bookkeeping.
func (p *BitPool64) Next64() uint64 {
	lo := p.NextBits(32)
	return lo | p.NextBits(32)<<32
}
