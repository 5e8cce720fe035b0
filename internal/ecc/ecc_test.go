package ecc

import (
	"bytes"
	"testing"

	"ringlwe/internal/gf2"
	"ringlwe/internal/rng"
)

func TestGeneratePointOnCurve(t *testing.T) {
	c := K233()
	src := rng.NewXorshift128(1)
	for i := 0; i < 10; i++ {
		p := c.GeneratePoint(src)
		if !c.OnCurve(&p) {
			t.Fatalf("generated point %d not on curve", i)
		}
	}
}

func TestAffineGroupLaw(t *testing.T) {
	c := K233()
	src := rng.NewXorshift128(2)
	p := c.GeneratePoint(src)
	q := c.GeneratePoint(src)
	r := c.GeneratePoint(src)

	// Closure.
	sum := c.Add(&p, &q)
	if !c.OnCurve(&sum) {
		t.Fatal("P+Q not on curve")
	}
	// Commutativity.
	sum2 := c.Add(&q, &p)
	if !sum.X.Equal(&sum2.X) || !sum.Y.Equal(&sum2.Y) {
		t.Fatal("P+Q ≠ Q+P")
	}
	// Associativity.
	l := c.Add(&sum, &r)
	qr := c.Add(&q, &r)
	rr := c.Add(&p, &qr)
	if !l.X.Equal(&rr.X) || !l.Y.Equal(&rr.Y) {
		t.Fatal("(P+Q)+R ≠ P+(Q+R)")
	}
	// Identity.
	inf := Infinity()
	id := c.Add(&p, &inf)
	if !id.X.Equal(&p.X) || !id.Y.Equal(&p.Y) {
		t.Fatal("P+∞ ≠ P")
	}
	// Inverse: P + (−P) = ∞ with −P = (x, x+y).
	var negY gf2.Elem
	negY.Add(&p.X, &p.Y)
	neg := Point{X: p.X, Y: negY}
	if !c.OnCurve(&neg) {
		t.Fatal("−P not on curve")
	}
	z := c.Add(&p, &neg)
	if !z.Inf {
		t.Fatal("P + (−P) ≠ ∞")
	}
	// Doubling consistency: 2P = P+P handled by Add.
	d1 := c.Double(&p)
	d2 := c.Add(&p, &p)
	if !d1.X.Equal(&d2.X) || !d1.Y.Equal(&d2.Y) {
		t.Fatal("Double(P) ≠ P+P")
	}
	if !c.OnCurve(&d1) {
		t.Fatal("2P not on curve")
	}
}

// The ladder must agree with the affine double-and-add oracle on the
// x-coordinate for assorted scalars.
func TestLadderMatchesAffineOracle(t *testing.T) {
	c := K233()
	src := rng.NewXorshift128(3)
	p := c.GeneratePoint(src)

	scalars := []Scalar{
		{1}, {2}, {3}, {4}, {5}, {17}, {255}, {256},
		{0xDEADBEEFCAFEF00D, 0x0123456789ABCDEF, 0xFFFFFFFFFFFFFFFF, 0x00FFFFFFFFFFFFFF},
		{0, 0, 0, 1 << 40},
	}
	for _, k := range scalars {
		want := c.ScalarMultAffine([4]uint64(k), &p)
		gotX, ok := c.MulX(&k, &p.X)
		if want.Inf {
			if ok {
				t.Fatalf("k=%v: oracle says ∞, ladder returned a point", k)
			}
			continue
		}
		if !ok {
			t.Fatalf("k=%v: ladder failed, oracle gives a finite point", k)
		}
		if !gotX.Equal(&want.X) {
			t.Fatalf("k=%v: ladder x mismatch", k)
		}
	}
}

// Diffie-Hellman commutativity through the x-only ladder:
// x(a·(bP)) = x(b·(aP)).
func TestXOnlyDiffieHellman(t *testing.T) {
	c := K233()
	src := rng.NewXorshift128(5)
	p := c.GeneratePoint(src)
	pool := rng.NewBitPool(rng.NewXorshift128(6))
	for i := 0; i < 5; i++ {
		a := RandomScalar(pool)
		b := RandomScalar(pool)
		ax, ok1 := c.MulX(&a, &p.X)
		bx, ok2 := c.MulX(&b, &p.X)
		if !ok1 || !ok2 {
			continue
		}
		abx, ok3 := c.MulX(&b, &ax)
		bax, ok4 := c.MulX(&a, &bx)
		if !ok3 || !ok4 {
			continue
		}
		if !abx.Equal(&bax) {
			t.Fatalf("trial %d: DH shared secrets differ", i)
		}
	}
}

func TestMulXDegenerateInputs(t *testing.T) {
	c := K233()
	var zero gf2.Elem
	x := gf2.One()
	if _, ok := c.MulX(&Scalar{}, &x); ok {
		t.Error("k=0 accepted")
	}
	if _, ok := c.MulX(&Scalar{5}, &zero); ok {
		t.Error("x=0 accepted")
	}
}

func TestRandomScalarWidth(t *testing.T) {
	pool := rng.NewBitPool(rng.NewXorshift128(7))
	for i := 0; i < 100; i++ {
		k := RandomScalar(pool)
		if k.IsZero() {
			t.Fatal("zero scalar")
		}
		if k.topBit() >= ScalarBits {
			t.Fatalf("scalar exceeds %d bits: top bit %d", ScalarBits, k.topBit())
		}
	}
}

func TestECIESRoundTrip(t *testing.T) {
	c := K233()
	base := c.GeneratePoint(rng.NewXorshift128(8))
	kp, err := GenerateKeyPair(c, base.X, rng.NewXorshift128(9))
	if err != nil {
		t.Fatal(err)
	}
	msgs := [][]byte{
		[]byte(""),
		[]byte("hi"),
		bytes.Repeat([]byte("ring-LWE vs ECIES "), 20),
	}
	for _, msg := range msgs {
		ct, err := Encrypt(kp, msg, rng.NewXorshift128(10))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decrypt(kp, ct)
		if err != nil {
			t.Fatalf("decrypt: %v", err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("round trip mismatch for %q", msg)
		}
	}
}

func TestECIESTamperDetection(t *testing.T) {
	c := K233()
	base := c.GeneratePoint(rng.NewXorshift128(11))
	kp, err := GenerateKeyPair(c, base.X, rng.NewXorshift128(12))
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("authenticated payload")
	ct, err := Encrypt(kp, msg, rng.NewXorshift128(13))
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int{0, elemBytes, len(ct) - 1} {
		tampered := append([]byte(nil), ct...)
		tampered[idx] ^= 1
		if _, err := Decrypt(kp, tampered); err == nil {
			t.Errorf("tampering at byte %d undetected", idx)
		}
	}
	if _, err := Decrypt(kp, ct[:10]); err == nil {
		t.Error("truncated ciphertext accepted")
	}
}

func TestECIESWrongKeyFails(t *testing.T) {
	c := K233()
	base := c.GeneratePoint(rng.NewXorshift128(14))
	kp1, err := GenerateKeyPair(c, base.X, rng.NewXorshift128(15))
	if err != nil {
		t.Fatal(err)
	}
	kp2, err := GenerateKeyPair(c, base.X, rng.NewXorshift128(16))
	if err != nil {
		t.Fatal(err)
	}
	ct, err := Encrypt(kp1, []byte("secret"), rng.NewXorshift128(17))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decrypt(kp2, ct); err == nil {
		t.Error("wrong private key decrypted successfully")
	}
}

func TestElemBytesRoundTrip(t *testing.T) {
	src := rng.NewXorshift128(18)
	c := K233()
	p := c.GeneratePoint(src)
	b := elemToBytes(&p.X)
	got, err := elemFromBytes(b[:])
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(&p.X) {
		t.Fatal("element byte round trip mismatch")
	}
	// Out-of-range rejection.
	b[elemBytes-1] = 0xFF
	if _, err := elemFromBytes(b[:]); err == nil {
		t.Error("out-of-range element accepted")
	}
}

func BenchmarkLadderMulX(b *testing.B) {
	c := K233()
	p := c.GeneratePoint(rng.NewXorshift128(1))
	pool := rng.NewBitPool(rng.NewXorshift128(2))
	k := RandomScalar(pool)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.MulX(&k, &p.X); !ok {
			b.Fatal("ladder failed")
		}
	}
}

func BenchmarkECIESEncrypt(b *testing.B) {
	c := K233()
	base := c.GeneratePoint(rng.NewXorshift128(3))
	kp, err := GenerateKeyPair(c, base.X, rng.NewXorshift128(4))
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 32)
	src := rng.NewXorshift128(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encrypt(kp, msg, src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkECIESDecrypt(b *testing.B) {
	c := K233()
	base := c.GeneratePoint(rng.NewXorshift128(6))
	kp, err := GenerateKeyPair(c, base.X, rng.NewXorshift128(7))
	if err != nil {
		b.Fatal(err)
	}
	ct, err := Encrypt(kp, make([]byte, 32), rng.NewXorshift128(8))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decrypt(kp, ct); err != nil {
			b.Fatal(err)
		}
	}
}
