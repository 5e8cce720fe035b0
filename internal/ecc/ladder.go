package ecc

import "ringlwe/internal/gf2"

// López-Dahab x-only Montgomery ladder (HMV Algorithm 3.40): computes
// x(k·P) from x(P) alone in projective (X : Z) coordinates, 6 field
// multiplications and 5 squarings per scalar bit, with a uniform
// add-then-double structure per step. This is the workhorse the paper's
// ECC cost estimate is built on ([19] uses the same algorithm on the
// Cortex-M0+).

// ladderStep performs the combined Madd/Mdouble for one scalar bit. On
// input (X1:Z1) = x(mP), (X2:Z2) = x((m+1)P); the difference is always the
// base x. When bit = 0 the pair becomes (2m, 2m+1); when bit = 1 it becomes
// (2m+1, 2m+2).
func (c *Curve) ladderStep(x *gf2.Elem, X1, Z1, X2, Z2 *gf2.Elem, bit uint64) {
	if bit == 1 {
		X1, X2 = X2, X1
		Z1, Z2 = Z2, Z1
	}
	// Madd into (X2:Z2):  T1 = X1·Z2, T2 = X2·Z1,
	// Z' = (T1+T2)², X' = x·Z' + T1·T2.
	var t1, t2, zs, xs gf2.Elem
	t1.Mul(X1, Z2)
	t2.Mul(X2, Z1)
	zs.Add(&t1, &t2)
	zs.Sqr(&zs)
	xs.Mul(&t1, &t2)
	t1.Mul(x, &zs)
	xs.Add(&xs, &t1)
	*X2, *Z2 = xs, zs

	// Mdouble into (X1:Z1):  Z' = X²·Z²,  X' = X⁴ + b·Z⁴.
	// The conditional pointer swap above already routes both results into
	// the correct accumulators, so no swap-back is needed.
	var x2, z2, z4 gf2.Elem
	x2.Sqr(X1)
	z2.Sqr(Z1)
	z4.Sqr(&z2)
	Z1.Mul(&x2, &z2)
	x2.Sqr(&x2)
	z4.Mul(&c.B, &z4)
	X1.Add(&x2, &z4)
}

// ScalarBits is the scalar width used by the protocols (one bit below the
// field size, matching 233-bit curve subgroup scalars).
const ScalarBits = 232

// Scalar is a little-endian 256-bit scalar container.
type Scalar [4]uint64

// IsZero reports whether the scalar is zero.
func (k *Scalar) IsZero() bool { return k[0]|k[1]|k[2]|k[3] == 0 }

// topBit returns the index of the highest set bit, or -1.
func (k *Scalar) topBit() int {
	for i := 255; i >= 0; i-- {
		if k[i/64]>>(i%64)&1 == 1 {
			return i
		}
	}
	return -1
}

// MulX computes x(k·P) from x = x(P) using the ladder. ok = false when the
// result is the point at infinity (Z = 0) or the inputs are degenerate
// (k = 0, x = 0); DH protocols retry on that negligible event.
func (c *Curve) MulX(k *Scalar, x *gf2.Elem) (out gf2.Elem, ok bool) {
	if k.IsZero() || x.IsZero() {
		return gf2.Elem{}, false
	}
	top := k.topBit()
	// Initialize: (X1:Z1) = x(P), (X2:Z2) = x(2P) = (x⁴+b : x²).
	X1 := *x
	Z1 := gf2.One()
	var X2, Z2 gf2.Elem
	Z2.Sqr(x)
	X2.Sqr(&Z2)
	var bb gf2.Elem
	bb = c.B
	X2.Add(&X2, &bb)
	for i := top - 1; i >= 0; i-- {
		c.ladderStep(x, &X1, &Z1, &X2, &Z2, k[i/64]>>(i%64)&1)
	}
	if Z1.IsZero() {
		return gf2.Elem{}, false
	}
	out.Div(&X1, &Z1)
	return out, true
}

// RandomScalar draws a uniform nonzero ScalarBits-bit scalar.
func RandomScalar(pool interface{ Bits(uint) uint32 }) Scalar {
	for {
		var k Scalar
		for w := 0; w < 4; w++ {
			base := 64 * w
			var v uint64
			for off := 0; off < 64 && base+off < ScalarBits; off += 16 {
				n := uint(16)
				if ScalarBits-base-off < 16 {
					n = uint(ScalarBits - base - off)
				}
				v |= uint64(pool.Bits(n)) << off
			}
			k[w] = v
		}
		if !k.IsZero() {
			return k
		}
	}
}
