// Package ecc implements elliptic curves over GF(2^233) with the x-only
// López-Dahab Montgomery ladder, plus an ECIES-style hybrid encryption
// scheme. It is the classical baseline of the paper's Table IV: the paper
// prices an ECIES encryption at two 233-bit point multiplications
// (≈ 5.5 M cycles on a Cortex-M0+, [19]) against 121 k cycles for ring-LWE
// encryption. Here both sides run in the same language and runtime so the
// comparison is measured, not quoted.
//
// The curve shape is the binary Weierstrass form y² + xy = x³ + ax² + b
// with a = 0 (the Koblitz K-233 shape). No standardized base point is
// needed: GeneratePoint constructs a point of large order from the curve
// equation via the half-trace quadratic solver, which is sufficient for
// Diffie-Hellman-style protocols where any point of unknown-but-large
// order exercises the exact same arithmetic.
package ecc

import (
	"ringlwe/internal/gf2"
	"ringlwe/internal/rng"
)

// Curve is y² + xy = x³ + ax² + b over GF(2^233). A must be 0 or 1 (every
// binary curve is isomorphic to one of these).
type Curve struct {
	A uint
	B gf2.Elem
}

// K233 returns the Koblitz-233 curve shape (a = 0, b = 1).
func K233() *Curve {
	return &Curve{A: 0, B: gf2.One()}
}

// Point is an affine point; Inf marks the point at infinity.
type Point struct {
	X, Y gf2.Elem
	Inf  bool
}

// Infinity returns the group identity.
func Infinity() Point { return Point{Inf: true} }

// OnCurve reports whether p satisfies the curve equation.
func (c *Curve) OnCurve(p *Point) bool {
	if p.Inf {
		return true
	}
	// y² + xy  ==  x³ + ax² + b
	var lhs, xy, rhs, x2 gf2.Elem
	lhs.Sqr(&p.Y)
	xy.Mul(&p.X, &p.Y)
	lhs.Add(&lhs, &xy)
	x2.Sqr(&p.X)
	rhs.Mul(&x2, &p.X)
	if c.A == 1 {
		rhs.Add(&rhs, &x2)
	}
	rhs.Add(&rhs, &c.B)
	return lhs.Equal(&rhs)
}

// Add returns p + q using the affine group law. It is the reference
// implementation the ladder is validated against; the ladder is what the
// protocols use.
func (c *Curve) Add(p, q *Point) Point {
	switch {
	case p.Inf:
		return *q
	case q.Inf:
		return *p
	}
	if p.X.Equal(&q.X) {
		// Either a doubling or P + (−P) = ∞. −(x,y) = (x, x+y).
		var negY gf2.Elem
		negY.Add(&q.X, &q.Y)
		if p.Y.Equal(&negY) {
			return Infinity()
		}
		return c.Double(p)
	}
	// λ = (y1+y2)/(x1+x2); x3 = λ² + λ + x1 + x2 + a; y3 = λ(x1+x3) + x3 + y1.
	var lambda, num, den gf2.Elem
	num.Add(&p.Y, &q.Y)
	den.Add(&p.X, &q.X)
	lambda.Div(&num, &den)

	var x3, t gf2.Elem
	x3.Sqr(&lambda)
	x3.Add(&x3, &lambda)
	x3.Add(&x3, &p.X)
	x3.Add(&x3, &q.X)
	if c.A == 1 {
		x3.Add(&x3, &one)
	}
	var y3 gf2.Elem
	t.Add(&p.X, &x3)
	y3.Mul(&lambda, &t)
	y3.Add(&y3, &x3)
	y3.Add(&y3, &p.Y)
	return Point{X: x3, Y: y3}
}

var one = gf2.One()

// Double returns 2p.
func (c *Curve) Double(p *Point) Point {
	if p.Inf || p.X.IsZero() {
		// x = 0 is the unique 2-torsion point: 2p = ∞.
		return Infinity()
	}
	// λ = x + y/x; x3 = λ² + λ + a; y3 = x² + (λ+1)·x3.
	var lambda gf2.Elem
	lambda.Div(&p.Y, &p.X)
	lambda.Add(&lambda, &p.X)

	var x3 gf2.Elem
	x3.Sqr(&lambda)
	x3.Add(&x3, &lambda)
	if c.A == 1 {
		x3.Add(&x3, &one)
	}
	var y3, lp1 gf2.Elem
	y3.Sqr(&p.X)
	lp1.Add(&lambda, &one)
	lp1.Mul(&lp1, &x3)
	y3.Add(&y3, &lp1)
	return Point{X: x3, Y: y3}
}

// ScalarMultAffine computes k·p by double-and-add over the affine law —
// the O(n) oracle for ladder validation. k is a 256-bit scalar in four
// little-endian words.
func (c *Curve) ScalarMultAffine(k [4]uint64, p *Point) Point {
	acc := Infinity()
	for i := 255; i >= 0; i-- {
		acc = c.Double(&acc)
		if k[i/64]>>(i%64)&1 == 1 {
			acc = c.Add(&acc, p)
		}
	}
	return acc
}

// SolveY returns a y with (x, y) on the curve, or ok = false when the
// quadratic λ² + λ = x + a + b/x² has trace 1 (no solution). Uses the
// half-trace (m is odd).
func (c *Curve) SolveY(x *gf2.Elem) (y gf2.Elem, ok bool) {
	if x.IsZero() {
		// (0, sqrt(b)) is on the curve: y² = b. sqrt = b^(2^(m-1)).
		y = c.B
		for i := 0; i < gf2.M-1; i++ {
			y.Sqr(&y)
		}
		return y, true
	}
	// Substitute y = λx: λ² + λ = x + a + b/x².
	var x2, rhs gf2.Elem
	x2.Sqr(x)
	rhs.Div(&c.B, &x2)
	rhs.Add(&rhs, x)
	if c.A == 1 {
		rhs.Add(&rhs, &one)
	}
	if rhs.Trace() == 1 {
		return gf2.Elem{}, false
	}
	var lambda gf2.Elem
	lambda.HalfTrace(&rhs)
	y.Mul(&lambda, x)
	return y, true
}

// GeneratePoint draws random x-coordinates from src until the curve
// equation is solvable and returns the resulting point (roughly two draws
// on average).
func (c *Curve) GeneratePoint(src rng.Source) Point {
	pool := rng.NewBitPool(src)
	for {
		var x gf2.Elem
		for w := 0; w < gf2.Words; w++ {
			lo := uint64(pool.Bits(16))
			ml := uint64(pool.Bits(16))
			mh := uint64(pool.Bits(16))
			hi := uint64(pool.Bits(16))
			x[w] = lo | ml<<16 | mh<<32 | hi<<48
		}
		x[gf2.Words-1] &= (1 << 41) - 1
		if x.IsZero() {
			continue
		}
		if y, ok := c.SolveY(&x); ok {
			return Point{X: x, Y: y}
		}
	}
}
