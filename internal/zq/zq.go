// Package zq implements arithmetic in Z_q, the ring of integers modulo a
// small prime q, as required by the negative-wrapped number theoretic
// transform (NTT) used in ring-LWE encryption.
//
// The package is built around the Modulus type, which precomputes a Barrett
// constant so that reductions need no hardware division. The moduli used by
// the DATE 2015 paper (q = 7681 for parameter set P1 and q = 12289 for P2)
// both satisfy q ≡ 1 (mod 2n) for their respective ring dimensions, which
// guarantees the existence of the 2n-th roots of unity ψ that the negacyclic
// NTT requires; FindPrimitiveRoot and derived helpers locate them.
//
// All coefficient values handled by this package are canonical residues in
// [0, q). Functions do not tolerate out-of-range inputs unless explicitly
// documented (Reduce and friends).
package zq

import (
	"fmt"
	"math/bits"
)

// Modulus bundles a prime modulus q with precomputed reduction constants.
// The zero value is not usable; construct with NewModulus.
type Modulus struct {
	// Q is the prime modulus itself.
	Q uint32
	// barrett is floor(2^barrettShift / Q), used by Reduce.
	barrett uint64
	// barrettShift is the power of two used for the Barrett constant. It is
	// chosen as 2*ceil(log2 Q) + 1 so that Reduce is exact for any product of
	// two canonical residues.
	barrettShift uint
	// bitLen is ceil(log2 Q), i.e. the number of bits needed per coefficient.
	bitLen uint
}

// NewModulus returns a Modulus for the odd prime q. It reports an error if q
// is not an odd prime in (2, 2^31): the NTT machinery assumes primality (it
// uses Fermat inversion) and needs headroom for lazy sums in 32 bits.
func NewModulus(q uint32) (*Modulus, error) {
	if q < 3 || q&1 == 0 {
		return nil, fmt.Errorf("zq: modulus %d must be an odd prime ≥ 3", q)
	}
	if q >= 1<<31 {
		return nil, fmt.Errorf("zq: modulus %d too large (must be < 2^31)", q)
	}
	if !isPrime(uint64(q)) {
		return nil, fmt.Errorf("zq: modulus %d is not prime", q)
	}
	bitLen := uint(bits.Len32(q))
	shift := 2*bitLen + 1
	m := &Modulus{
		Q:            q,
		barrett:      (uint64(1) << shift) / uint64(q),
		barrettShift: shift,
		bitLen:       bitLen,
	}
	return m, nil
}

// BitLen returns the number of bits required to store one canonical residue,
// e.g. 13 for q = 7681 and 14 for q = 12289. The paper packs two such
// coefficients into one 32-bit word.
func (m *Modulus) BitLen() uint { return m.bitLen }

// Reduce returns x mod Q for any x < 2^(2*BitLen+1) using Barrett reduction.
// This covers any product of two canonical residues plus one extra addition,
// which is the largest intermediate the NTT butterflies produce.
func (m *Modulus) Reduce(x uint64) uint32 {
	// q̂ = floor(x * barrett / 2^shift) underestimates floor(x/Q) by at most 1.
	// The product needs the full 128 bits: for q past ~2^21 the residue
	// product x (up to 2^(2·bitLen+1)) times the Barrett constant no longer
	// fits in a uint64, so a single-word multiply would silently wrap.
	hi, lo := bits.Mul64(x, m.barrett)
	qhat := hi<<(64-m.barrettShift) | lo>>m.barrettShift
	r := x - qhat*uint64(m.Q)
	if r >= uint64(m.Q) {
		r -= uint64(m.Q)
	}
	return uint32(r)
}

// Add returns (a + b) mod Q for canonical a, b.
func (m *Modulus) Add(a, b uint32) uint32 {
	s := a + b
	if s >= m.Q {
		s -= m.Q
	}
	return s
}

// Sub returns (a - b) mod Q for canonical a, b.
func (m *Modulus) Sub(a, b uint32) uint32 {
	d := a - b
	if d > a { // underflow wrapped around
		d += m.Q
	}
	return d
}

// Mul returns (a * b) mod Q for canonical a, b.
func (m *Modulus) Mul(a, b uint32) uint32 {
	return m.Reduce(uint64(a) * uint64(b))
}

// Exp returns a^e mod Q by square-and-multiply. a must be canonical.
func (m *Modulus) Exp(a uint32, e uint64) uint32 {
	result := uint32(1)
	base := a % m.Q
	for e > 0 {
		if e&1 == 1 {
			result = m.Mul(result, base)
		}
		base = m.Mul(base, base)
		e >>= 1
	}
	return result
}

// Inv returns the multiplicative inverse of a modulo the prime Q using
// Fermat's little theorem. It panics if a ≡ 0, which has no inverse; callers
// in this module only invert known units (roots of unity, n).
func (m *Modulus) Inv(a uint32) uint32 {
	if a%m.Q == 0 {
		panic("zq: inverse of zero")
	}
	return m.Exp(a, uint64(m.Q)-2)
}

// isPrime is a deterministic Miller-Rabin test, exact for all 64-bit inputs
// with the fixed witness set below.
func isPrime(n uint64) bool {
	if n < 2 {
		return false
	}
	for _, p := range []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} {
		if n%p == 0 {
			return n == p
		}
	}
	// Write n-1 = d * 2^s with d odd.
	d := n - 1
	s := 0
	for d&1 == 0 {
		d >>= 1
		s++
	}
	// These witnesses are sufficient for all n < 2^64.
	for _, a := range []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} {
		x := expMod64(a%n, d, n)
		if x == 1 || x == n-1 {
			continue
		}
		composite := true
		for r := 1; r < s; r++ {
			x = mulMod64(x, x, n)
			if x == n-1 {
				composite = false
				break
			}
		}
		if composite {
			return false
		}
	}
	return true
}

func mulMod64(a, b, n uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, rem := bits.Div64(hi%n, lo, n)
	return rem
}

func expMod64(a, e, n uint64) uint64 {
	result := uint64(1)
	base := a % n
	for e > 0 {
		if e&1 == 1 {
			result = mulMod64(result, base, n)
		}
		base = mulMod64(base, base, n)
		e >>= 1
	}
	return result
}
