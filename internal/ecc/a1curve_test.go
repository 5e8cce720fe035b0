package ecc

import (
	"testing"

	"ringlwe/internal/gf2"
	"ringlwe/internal/rng"
)

// a = 1 curve coverage (the B-233 shape): the affine group law depends on
// a, while the López-Dahab ladder formulas happen not to — this
// cross-validates both against each other on the second curve family.
func a1Curve() *Curve {
	// Any nonzero b gives a valid (nonsingular) curve: here x¹⁰⁰ + x⁷ + 1.
	return &Curve{A: 1, B: gf2.Elem{1<<7 | 1, 1 << (100 - 64)}}
}

func TestA1CurveGroupLaw(t *testing.T) {
	c := a1Curve()
	src := rng.NewXorshift128(21)
	p := c.GeneratePoint(src)
	q := c.GeneratePoint(src)
	if !c.OnCurve(&p) || !c.OnCurve(&q) {
		t.Fatal("generated points not on the a=1 curve")
	}
	sum := c.Add(&p, &q)
	if !c.OnCurve(&sum) {
		t.Fatal("P+Q leaves the curve")
	}
	dbl := c.Double(&p)
	if !c.OnCurve(&dbl) {
		t.Fatal("2P leaves the curve")
	}
	// (P+Q)+P == Q+2P (associativity shuffle).
	l := c.Add(&sum, &p)
	r := c.Add(&q, &dbl)
	if !l.X.Equal(&r.X) || !l.Y.Equal(&r.Y) {
		t.Fatal("group law inconsistent on a=1 curve")
	}
}

func TestA1CurveLadderMatchesOracle(t *testing.T) {
	c := a1Curve()
	src := rng.NewXorshift128(22)
	p := c.GeneratePoint(src)
	for _, k := range []Scalar{{2}, {3}, {5}, {12345}, {0xFEDCBA987654321, 7}} {
		want := c.ScalarMultAffine([4]uint64(k), &p)
		gotX, ok := c.MulX(&k, &p.X)
		if want.Inf {
			if ok {
				t.Fatalf("k=%v: oracle ∞, ladder finite", k)
			}
			continue
		}
		if !ok || !gotX.Equal(&want.X) {
			t.Fatalf("k=%v: ladder mismatch on a=1 curve", k)
		}
	}
}

func TestA1CurveECIES(t *testing.T) {
	c := a1Curve()
	base := c.GeneratePoint(rng.NewXorshift128(23))
	kp, err := GenerateKeyPair(c, base.X, rng.NewXorshift128(24))
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("works on B-233-shaped curves too")
	ct, err := Encrypt(kp, msg, rng.NewXorshift128(25))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decrypt(kp, ct)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Fatal("round trip failed")
	}
}
