// Package gf2 implements arithmetic in the binary field GF(2^233) with the
// NIST reduction trinomial x²³³ + x⁷⁴ + 1, the field underlying the 233-bit
// elliptic curves (B-233/K-233) that the paper's Table IV uses as the
// classical public-key baseline: an ECIES encryption at medium-term
// security costs two 233-bit point multiplications, which the paper
// estimates at ≈ 5.5 M Cortex-M0+ cycles against its 121 k-cycle ring-LWE
// encryption. Implementing the field (rather than quoting the constant)
// lets the benchmark harness measure both sides in the same runtime.
//
// Elements are polynomials over GF(2) of degree < 233, packed
// little-endian into four 64-bit words (word 3 uses 41 bits). Addition is
// XOR; multiplication is a 4-bit-window comb with word-level reduction;
// inversion uses the binary extended Euclidean algorithm.
package gf2

import (
	"fmt"
	"math/bits"
)

// M is the field extension degree.
const M = 233

// trinomial middle term: x^233 + x^74 + 1.
const midTerm = 74

// Words is the storage size of one element.
const Words = 4

// topWordBits is the number of used bits in the most significant word.
const topWordBits = M - 64*(Words-1) // 41

// topMask masks the valid bits of the top word.
const topMask = (uint64(1) << topWordBits) - 1

// Elem is a field element. The zero value is the additive identity.
// Elements must stay reduced (degree < 233); all package operations
// preserve this invariant.
type Elem [Words]uint64

// One returns the multiplicative identity.
func One() Elem { return Elem{1} }

// IsZero reports whether e is the zero element.
func (e *Elem) IsZero() bool {
	return e[0]|e[1]|e[2]|e[3] == 0
}

// Equal reports element equality.
func (e *Elem) Equal(f *Elem) bool {
	return e[0] == f[0] && e[1] == f[1] && e[2] == f[2] && e[3] == f[3]
}

// Add sets e = a + b (XOR) and returns e.
func (e *Elem) Add(a, b *Elem) *Elem {
	e[0] = a[0] ^ b[0]
	e[1] = a[1] ^ b[1]
	e[2] = a[2] ^ b[2]
	e[3] = a[3] ^ b[3]
	return e
}

// String renders the element as big-endian hex.
func (e Elem) String() string {
	return fmt.Sprintf("%016x%016x%016x%016x", e[3], e[2], e[1], e[0])
}

// mulNoRed multiplies a·b into an 8-word product using a 4-bit-window comb:
// 16 precomputed multiples of b are combed across a's nibbles. This is the
// structure a software implementation on a 32-bit MCU uses (window table in
// RAM, shift-and-XOR accumulation).
func mulNoRed(a, b *Elem) [2 * Words]uint64 {
	// Precompute u·b for u in [0,16).
	var tab [16][Words + 1]uint64
	for u := 1; u < 16; u++ {
		if u&1 == 1 {
			for w := 0; w < Words; w++ {
				tab[u][w] = tab[u^1][w] ^ b[w]
			}
			tab[u][Words] = tab[u^1][Words]
		} else {
			half := tab[u>>1]
			var carry uint64
			for w := 0; w <= Words; w++ {
				tab[u][w] = half[w]<<1 | carry
				carry = half[w] >> 63
			}
		}
	}
	var c [2*Words + 1]uint64
	// Comb from the most significant nibble downward.
	for nib := 15; nib >= 0; nib-- {
		if nib != 15 {
			// c <<= 4 across the accumulator.
			var carry uint64
			for w := 0; w < len(c); w++ {
				nc := c[w] >> 60
				c[w] = c[w]<<4 | carry
				carry = nc
			}
		}
		for w := 0; w < Words; w++ {
			u := a[w] >> (4 * nib) & 0xF
			if u != 0 {
				for k := 0; k <= Words; k++ {
					c[w+k] ^= tab[u][k]
				}
			}
		}
	}
	var out [2 * Words]uint64
	copy(out[:], c[:2*Words])
	return out
}

// reduce folds an 8-word product modulo x²³³ + x⁷⁴ + 1 into e.
// Using x²³³ ≡ x⁷⁴ + 1: every bit at position p ≥ 233 folds to positions
// p-233 and p-233+74.
func (e *Elem) reduce(c *[2 * Words]uint64) *Elem {
	// Fold words 7..4 (bits ≥ 256) first, then the top bits of word 3.
	for i := 2*Words - 1; i >= Words; i-- {
		t := c[i]
		c[i] = 0
		// bit p = 64i+k  →  p-233 = 64(i-4)+(k+23), p-159 = 64(i-3)+(k+10)
		lo := 64*i - 233
		hi := 64*i - 233 + midTerm
		xorShifted(c[:], lo, t)
		xorShifted(c[:], hi, t)
	}
	// Bits 233..255 of word 3.
	t := c[3] >> (topWordBits % 64) // bits ≥ 233 within word 3
	if t != 0 {
		c[3] &= topMask
		xorShifted(c[:], 0, t)
		xorShifted(c[:], midTerm, t)
	}
	e[0], e[1], e[2], e[3] = c[0], c[1], c[2], c[3]&topMask
	return e
}

// xorShifted XORs the 64-bit value v into the bit position pos of the word
// array c.
func xorShifted(c []uint64, pos int, v uint64) {
	w, off := pos/64, uint(pos%64)
	c[w] ^= v << off
	if off != 0 && w+1 < len(c) {
		c[w+1] ^= v >> (64 - off)
	}
}

// Mul sets e = a·b and returns e.
func (e *Elem) Mul(a, b *Elem) *Elem {
	prod := mulNoRed(a, b)
	return e.reduce(&prod)
}

// Sqr sets e = a² and returns e. Squaring in GF(2^m) interleaves zeros
// between the bits (a linear map), implemented with an 8→16 bit spread
// table, then reduces.
func (e *Elem) Sqr(a *Elem) *Elem {
	var c [2 * Words]uint64
	for i := 0; i < Words; i++ {
		c[2*i] = spread32(uint32(a[i]))
		c[2*i+1] = spread32(uint32(a[i] >> 32))
	}
	return e.reduce(&c)
}

// sqrTab spreads one byte's bits into the even positions of a 16-bit value.
var sqrTab = func() [256]uint16 {
	var t [256]uint16
	for i := 0; i < 256; i++ {
		var v uint16
		for b := 0; b < 8; b++ {
			if i>>b&1 == 1 {
				v |= 1 << (2 * b)
			}
		}
		t[i] = v
	}
	return t
}()

// spread32 interleaves zeros between the bits of x.
func spread32(x uint32) uint64 {
	return uint64(sqrTab[x&0xFF]) |
		uint64(sqrTab[x>>8&0xFF])<<16 |
		uint64(sqrTab[x>>16&0xFF])<<32 |
		uint64(sqrTab[x>>24&0xFF])<<48
}

// Inv sets e = a⁻¹ using the binary extended Euclidean algorithm over
// GF(2)[x]. It panics on zero, which has no inverse.
func (e *Elem) Inv(a *Elem) *Elem {
	if a.IsZero() {
		panic("gf2: inverse of zero")
	}
	// u, v are the working polynomials; g1, g2 the accumulating factors.
	// Invariant: g1·a ≡ u, g2·a ≡ v (mod f), as 5-word (untruncated) values
	// only ever of degree ≤ 233.
	var u, v poly
	u.fromElem(a)
	v.setModulus()
	var g1, g2 poly
	g1.w[0] = 1

	for {
		du, dv := u.degree(), v.degree()
		if du == 0 { // u == 1
			return e.fromPoly(&g1)
		}
		if dv == 0 { // v == 1
			return e.fromPoly(&g2)
		}
		if du < dv {
			u, v = v, u
			g1, g2 = g2, g1
			du, dv = dv, du
		}
		shift := du - dv
		u.xorShifted(&v, shift)
		g1.xorShifted(&g2, shift)
	}
}

// Div sets e = a/b.
func (e *Elem) Div(a, b *Elem) *Elem {
	var inv Elem
	inv.Inv(b)
	return e.Mul(a, &inv)
}

// Trace returns Tr(e) = Σ e^(2^i) ∈ {0,1}. For GF(2^233) with this
// trinomial the trace is a single bit test on coefficient 0 and 159:
// computed generically here by summation (initialization-time cost only).
func (e *Elem) Trace() uint64 {
	var t, x Elem
	t = *e
	x = *e
	for i := 1; i < M; i++ {
		x.Sqr(&x)
		t.Add(&t, &x)
	}
	return t[0] & 1
}

// HalfTrace returns H(e) = Σ_{i=0}^{(m-1)/2} e^(2^(2i)), which for odd m
// solves z² + z = e when Tr(e) = 0 — the standard point-decompression and
// random-point tool on binary curves.
func (e *Elem) HalfTrace(a *Elem) *Elem {
	var h, x Elem
	h = *a
	x = *a
	for i := 1; i <= (M-1)/2; i++ {
		x.Sqr(&x)
		x.Sqr(&x)
		h.Add(&h, &x)
	}
	*e = h
	return e
}

// poly is a 5-word polynomial workspace for the EEA (degree ≤ 233).
type poly struct {
	w [Words + 1]uint64
}

func (p *poly) fromElem(e *Elem) {
	copy(p.w[:Words], e[:])
	p.w[Words] = 0
}

func (p *poly) setModulus() {
	p.w = [Words + 1]uint64{}
	p.w[0] = 1
	p.w[midTerm/64] |= 1 << (midTerm % 64)
	p.w[M/64] |= 1 << (M % 64)
}

func (p *poly) degree() int {
	for i := Words; i >= 0; i-- {
		if p.w[i] != 0 {
			return 64*i + bits.Len64(p.w[i]) - 1
		}
	}
	return -1
}

// xorShifted sets p ^= q << shift.
func (p *poly) xorShifted(q *poly, shift int) {
	w, off := shift/64, uint(shift%64)
	if off == 0 {
		for i := Words; i >= w; i-- {
			p.w[i] ^= q.w[i-w]
		}
		return
	}
	for i := Words; i >= w; i-- {
		v := q.w[i-w] << off
		if i-w-1 >= 0 {
			v |= q.w[i-w-1] >> (64 - off)
		}
		p.w[i] ^= v
	}
}

func (e *Elem) fromPoly(p *poly) *Elem {
	// The EEA keeps factors reduced below the modulus degree, so the spill
	// word is empty and the top word fits the field mask once the loop
	// terminates. A final fold handles the (possible) bit 233.
	var c [2 * Words]uint64
	copy(c[:Words+1], p.w[:])
	return e.reduce(&c)
}
