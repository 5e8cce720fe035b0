package gf2

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randElem(r *rand.Rand) Elem {
	var e Elem
	for i := 0; i < Words; i++ {
		e[i] = r.Uint64()
	}
	e[Words-1] &= topMask
	return e
}

// mulSlow is a bit-by-bit shift-and-add multiplier used as the oracle.
func mulSlow(a, b *Elem) Elem {
	var acc Elem
	shifted := *b
	for i := 0; i < M; i++ {
		if a[i/64]>>(i%64)&1 == 1 {
			acc.Add(&acc, &shifted)
		}
		// shifted *= x, with manual reduction.
		var carry uint64
		for w := 0; w < Words; w++ {
			nc := shifted[w] >> 63
			shifted[w] = shifted[w]<<1 | carry
			carry = nc
		}
		if shifted[Words-1]>>topWordBits&1 == 1 {
			shifted[Words-1] &^= 1 << topWordBits
			shifted[0] ^= 1
			shifted[midTerm/64] ^= 1 << (midTerm % 64)
		}
	}
	return acc
}

func TestMulMatchesSlowOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		a, b := randElem(r), randElem(r)
		want := mulSlow(&a, &b)
		var got Elem
		got.Mul(&a, &b)
		if !got.Equal(&want) {
			t.Fatalf("iteration %d:\n a=%v\n b=%v\n got  %v\n want %v", i, a, b, got, want)
		}
	}
}

func TestMulIdentityAndZero(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	one := One()
	var zero Elem
	for i := 0; i < 50; i++ {
		a := randElem(r)
		var got Elem
		got.Mul(&a, &one)
		if !got.Equal(&a) {
			t.Fatal("a·1 ≠ a")
		}
		got.Mul(&a, &zero)
		if !got.IsZero() {
			t.Fatal("a·0 ≠ 0")
		}
	}
}

func TestFieldAxiomsQuick(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	gen := func() Elem { return randElem(r) }

	mulComm := func() bool {
		a, b := gen(), gen()
		var x, y Elem
		x.Mul(&a, &b)
		y.Mul(&b, &a)
		return x.Equal(&y)
	}
	mulAssoc := func() bool {
		a, b, c := gen(), gen(), gen()
		var x, y Elem
		x.Mul(&a, &b)
		x.Mul(&x, &c)
		y.Mul(&b, &c)
		y.Mul(&a, &y)
		return x.Equal(&y)
	}
	distrib := func() bool {
		a, b, c := gen(), gen(), gen()
		var bc, left, x, y, right Elem
		bc.Add(&b, &c)
		left.Mul(&a, &bc)
		x.Mul(&a, &b)
		y.Mul(&a, &c)
		right.Add(&x, &y)
		return left.Equal(&right)
	}
	frobenius := func() bool {
		// (a+b)² = a² + b² in characteristic 2.
		a, b := gen(), gen()
		var ab, l, sa, sb, r2 Elem
		ab.Add(&a, &b)
		l.Sqr(&ab)
		sa.Sqr(&a)
		sb.Sqr(&b)
		r2.Add(&sa, &sb)
		return l.Equal(&r2)
	}
	for name, f := range map[string]func() bool{
		"mulComm": mulComm, "mulAssoc": mulAssoc,
		"distrib": distrib, "frobenius": frobenius,
	} {
		wrapped := func(uint8) bool { return f() }
		if err := quick.Check(wrapped, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestSqrMatchesMul(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		a := randElem(r)
		var viaMul, viaSqr Elem
		viaMul.Mul(&a, &a)
		viaSqr.Sqr(&a)
		if !viaMul.Equal(&viaSqr) {
			t.Fatalf("a² mismatch for %v", a)
		}
	}
}

func TestInv(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	one := One()
	for i := 0; i < 100; i++ {
		a := randElem(r)
		if a.IsZero() {
			continue
		}
		var inv, prod Elem
		inv.Inv(&a)
		prod.Mul(&a, &inv)
		if !prod.Equal(&one) {
			t.Fatalf("a·a⁻¹ ≠ 1 for %v", a)
		}
	}
	// Inverse of one is one.
	var invOne Elem
	invOne.Inv(&one)
	if !invOne.Equal(&one) {
		t.Fatal("1⁻¹ ≠ 1")
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	var z, e Elem
	e.Inv(&z)
}

func TestDiv(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 50; i++ {
		a, b := randElem(r), randElem(r)
		if b.IsZero() {
			continue
		}
		var q, back Elem
		q.Div(&a, &b)
		back.Mul(&q, &b)
		if !back.Equal(&a) {
			t.Fatal("(a/b)·b ≠ a")
		}
	}
}

// Fermat: a^(2^m - 1) = 1, equivalently a^(2^m) = a.
func TestFrobeniusOrbit(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		a := randElem(r)
		x := a
		for j := 0; j < M; j++ {
			x.Sqr(&x)
		}
		if !x.Equal(&a) {
			t.Fatalf("a^(2^233) ≠ a for %v", a)
		}
	}
}

// The trace is GF(2)-linear and about half of all elements have trace 1.
func TestTraceProperties(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	ones := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		a, b := randElem(r), randElem(r)
		var ab Elem
		ab.Add(&a, &b)
		if ab.Trace() != a.Trace()^b.Trace() {
			t.Fatal("trace not linear")
		}
		ones += int(a.Trace())
	}
	if ones < trials/4 || ones > 3*trials/4 {
		t.Errorf("trace distribution skewed: %d/%d ones", ones, trials)
	}
	// Trace is invariant under squaring.
	a := randElem(r)
	var sq Elem
	sq.Sqr(&a)
	if a.Trace() != sq.Trace() {
		t.Fatal("Tr(a²) ≠ Tr(a)")
	}
}

// Half-trace solves z² + z = c for trace-zero c (m odd).
func TestHalfTraceSolvesQuadratic(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	solved := 0
	for i := 0; i < 50; i++ {
		c := randElem(r)
		if c.Trace() != 0 {
			continue
		}
		var z, z2, lhs Elem
		z.HalfTrace(&c)
		z2.Sqr(&z)
		lhs.Add(&z2, &z)
		if !lhs.Equal(&c) {
			t.Fatalf("H(c)² + H(c) ≠ c for %v", c)
		}
		solved++
	}
	if solved == 0 {
		t.Fatal("no trace-zero elements found in 50 trials")
	}
}

func BenchmarkMul(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x, y := randElem(r), randElem(r)
	var out Elem
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Mul(&x, &y)
	}
}

func BenchmarkSqr(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := randElem(r)
	var out Elem
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Sqr(&x)
	}
}

func BenchmarkInv(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := randElem(r)
	var out Elem
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Inv(&x)
	}
}
