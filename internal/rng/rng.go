// Package rng provides the random-number infrastructure the ring-LWE
// implementation consumes: a 32-bit word source abstraction, deterministic
// and cryptographic implementations, a model of the STM32F4 hardware TRNG
// the paper uses, and the paper's register bit pool (§III-E) that stretches
// each 32-bit word across many Knuth-Yao sampling steps.
package rng

import (
	"crypto/rand"
	"encoding/binary"
	"math/bits"

	"ringlwe/internal/cacheline"
)

// Source produces uniform 32-bit words. Implementations need not be safe for
// concurrent use; the samplers in this module are single-threaded, matching
// the microcontroller target.
type Source interface {
	// Uint32 returns the next uniformly distributed 32-bit word.
	Uint32() uint32
}

// Xorshift128 is a small deterministic PRNG (Marsaglia xorshift128). It is
// used by tests and benchmarks where reproducibility matters; it is not
// cryptographically secure. Every draw writes its state, so the state sits
// between cache-line pads (see package cacheline).
type Xorshift128 struct {
	_          cacheline.Pad
	x, y, z, w uint32
	_          cacheline.Pad
}

// NewXorshift128 seeds a deterministic source. Any seed is accepted; zero is
// remapped so the state never becomes all-zero (which would be absorbing).
func NewXorshift128(seed uint64) *Xorshift128 {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	s := &Xorshift128{
		x: uint32(seed),
		y: uint32(seed >> 32),
		z: 0x6C078965,
		w: 0x5F356495,
	}
	// Mix the state so nearby seeds diverge immediately.
	for i := 0; i < 16; i++ {
		s.Uint32()
	}
	return s
}

// Uint32 returns the next pseudorandom word.
func (s *Xorshift128) Uint32() uint32 {
	t := s.x ^ (s.x << 11)
	s.x, s.y, s.z = s.y, s.z, s.w
	s.w = s.w ^ (s.w >> 19) ^ t ^ (t >> 8)
	return s.w
}

// CryptoSource draws words from crypto/rand, buffering reads to amortize the
// syscall cost. It panics if the operating system entropy source fails,
// mirroring how a device would treat a dead TRNG as a fatal fault. Its
// buffer and position sit between cache-line pads (see package cacheline).
type CryptoSource struct {
	_   cacheline.Pad
	buf [256]byte
	pos int
	_   cacheline.Pad
}

// NewCryptoSource returns a source backed by crypto/rand.
func NewCryptoSource() *CryptoSource {
	return &CryptoSource{pos: len(CryptoSource{}.buf)}
}

// Uint32 returns the next cryptographically random word.
func (c *CryptoSource) Uint32() uint32 {
	if c.pos+4 > len(c.buf) {
		if _, err := rand.Read(c.buf[:]); err != nil {
			panic("rng: crypto/rand failed: " + err.Error())
		}
		c.pos = 0
	}
	v := binary.LittleEndian.Uint32(c.buf[c.pos:])
	c.pos += 4
	return v
}

// TRNG models the STM32F407 hardware true random number generator: one fresh
// 32-bit word every 40 cycles of its 48 MHz clock, i.e. one word per 140 CPU
// cycles at 168 MHz. The words themselves come from the wrapped Source; the
// model only adds the latency accounting the paper's cycle counts include.
// FetchCost reports the stall a fetch would cost a polling caller given how
// many CPU cycles have elapsed since the previous fetch.
type TRNG struct {
	src Source
	// Words fetched so far; used by tests and the cycle model.
	Fetches uint64
}

// CPUCyclesPerWord is the CPU-cycle interval between fresh TRNG words:
// 40 TRNG-clock cycles × (168 MHz / 48 MHz).
const CPUCyclesPerWord = 140

// MinWaitCycles is the minimum polling wait the paper reports between
// back-to-back requests ("can perform other computations while waiting 12
// cycles between each random number request").
const MinWaitCycles = 12

// NewTRNG wraps src with TRNG fetch accounting.
func NewTRNG(src Source) *TRNG { return &TRNG{src: src} }

// Uint32 fetches the next hardware word.
func (t *TRNG) Uint32() uint32 {
	t.Fetches++
	return t.src.Uint32()
}

// FetchCost returns the modeled CPU-cycle cost of the next fetch when
// `elapsed` CPU cycles of useful work have occurred since the last fetch:
// the device read itself plus any stall waiting for word generation.
func FetchCost(elapsed uint64) uint64 {
	if elapsed >= CPUCyclesPerWord {
		return MinWaitCycles
	}
	stall := CPUCyclesPerWord - elapsed
	if stall < MinWaitCycles {
		stall = MinWaitCycles
	}
	return stall
}

// BitPool dispenses random bits one or more at a time from buffered 32-bit
// words, implementing the paper's register technique: each fresh word has
// its most significant bit forced to 1 as a sentinel, so the number of fresh
// bits remaining can be recovered with a single clz instruction and no
// separate counter register. When the register value reaches 1 (only the
// sentinel left), a new word is fetched. Every bit drawn writes the
// register, so it sits between cache-line pads (see package cacheline).
type BitPool struct {
	_   cacheline.Pad
	src Source
	reg uint32
	// Refills counts word fetches, exposed for the cycle model and tests.
	Refills uint64
	_       cacheline.Pad
}

// NewBitPool returns an empty pool over src; the first Bit/Bits call fetches.
func NewBitPool(src Source) *BitPool {
	return &BitPool{src: src, reg: 1} // 1 = sentinel only, i.e. empty
}

// Remaining returns how many fresh bits are available without a refill,
// computed clz-style from the sentinel position.
func (p *BitPool) Remaining() uint {
	return uint(31 - bits.LeadingZeros32(p.reg))
}

// refill is kept out of line so that Bit, which calls it once per 31 bits,
// stays small enough to inline.
//
//go:noinline
func (p *BitPool) refill() {
	p.reg = p.src.Uint32() | 1<<31 // sentinel: MSB forced to one
	p.Refills++
}

// Bit returns the next random bit.
func (p *BitPool) Bit() uint32 {
	if p.reg == 1 {
		p.refill()
	}
	b := p.reg & 1
	p.reg >>= 1
	return b
}

// Bits returns the next n random bits (0 ≤ n ≤ 31) packed little-endian:
// the first bit delivered is the least significant of the result. It reads
// them the way the paper's register does: one clz for the fresh-bit count,
// one mask and one shift. A read the register cannot cover takes what is
// left, refills once and takes the rest from the fresh word, so the stream,
// the refill points and Refills are exactly those of n successive Bit
// calls.
func (p *BitPool) Bits(n uint) uint32 {
	if n > p.Remaining() { // always taken for n > 31, which straddle rejects
		return p.straddle(n)
	}
	v := p.reg & (1<<n - 1)
	p.reg >>= n
	return v
}

// straddle serves a Bits(n) read that needs more than the avail < n bits
// the register holds: the low avail bits come from the register, the rest
// from one refill. Refilling only here, when a bit is actually needed,
// keeps the refill point of the bit-serial stream. Outlined so the common
// path of Bits stays small.
func (p *BitPool) straddle(n uint) uint32 {
	if n > 31 {
		panic("rng: BitPool.Bits supports at most 31 bits per call")
	}
	avail := p.Remaining()
	lo := p.reg & (1<<avail - 1)
	p.refill()
	rest := n - avail
	v := lo | (p.reg&(1<<rest-1))<<avail
	p.reg >>= rest
	return v
}
