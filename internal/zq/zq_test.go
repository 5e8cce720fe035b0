package zq

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// The two paper moduli plus a few auxiliary primes used across the tests.
var testModuli = []uint32{7681, 12289, 17, 257, 65537, 40961}

// mustModulus is NewModulus for the tests' known primes.
func mustModulus(q uint32) *Modulus {
	m, err := NewModulus(q)
	if err != nil {
		panic(err)
	}
	return m
}

func TestNewModulusRejectsBadInput(t *testing.T) {
	cases := []struct {
		q    uint32
		name string
	}{
		{0, "zero"},
		{1, "one"},
		{2, "even prime too small"},
		{4, "even"},
		{9, "composite odd"},
		{7680, "composite even"},
		{1 << 31, "too large"},
	}
	for _, c := range cases {
		if _, err := NewModulus(c.q); err == nil {
			t.Errorf("NewModulus(%d) [%s]: expected error, got none", c.q, c.name)
		}
	}
}

func TestNewModulusAcceptsPaperPrimes(t *testing.T) {
	for _, q := range testModuli {
		m, err := NewModulus(q)
		if err != nil {
			t.Fatalf("NewModulus(%d): %v", q, err)
		}
		if m.Q != q {
			t.Errorf("NewModulus(%d).Q = %d", q, m.Q)
		}
	}
}

func TestBitLen(t *testing.T) {
	if got := mustModulus(7681).BitLen(); got != 13 {
		t.Errorf("BitLen(7681) = %d, want 13", got)
	}
	if got := mustModulus(12289).BitLen(); got != 14 {
		t.Errorf("BitLen(12289) = %d, want 14", got)
	}
}

func TestReduceMatchesNativeMod(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, q := range testModuli {
		m := mustModulus(q)
		// The documented domain is x < 2^(2*bitLen+1).
		maxIn := uint64(1) << (2*m.BitLen() + 1)
		for i := 0; i < 20000; i++ {
			x := rng.Uint64() % maxIn
			if got, want := m.Reduce(x), uint32(x%uint64(q)); got != want {
				t.Fatalf("q=%d Reduce(%d) = %d, want %d", q, x, got, want)
			}
		}
		// Boundary values.
		for _, x := range []uint64{0, 1, uint64(q) - 1, uint64(q), uint64(q) + 1, maxIn - 1} {
			if got, want := m.Reduce(x), uint32(x%uint64(q)); got != want {
				t.Fatalf("q=%d Reduce(%d) = %d, want %d", q, x, got, want)
			}
		}
	}
}

func TestAddSubNegMulAgainstInt64(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, q := range testModuli {
		m := mustModulus(q)
		for i := 0; i < 10000; i++ {
			a := rng.Uint32() % q
			b := rng.Uint32() % q
			if got, want := m.Add(a, b), uint32((uint64(a)+uint64(b))%uint64(q)); got != want {
				t.Fatalf("q=%d Add(%d,%d) = %d, want %d", q, a, b, got, want)
			}
			if got, want := m.Sub(a, b), uint32((uint64(a)+uint64(q)-uint64(b))%uint64(q)); got != want {
				t.Fatalf("q=%d Sub(%d,%d) = %d, want %d", q, a, b, got, want)
			}
			if got, want := m.Mul(a, b), uint32(uint64(a)*uint64(b)%uint64(q)); got != want {
				t.Fatalf("q=%d Mul(%d,%d) = %d, want %d", q, a, b, got, want)
			}
			if got, want := m.Sub(0, a), uint32((uint64(q)-uint64(a))%uint64(q)); got != want {
				t.Fatalf("q=%d Sub(0,%d) = %d, want %d", q, a, got, want)
			}
		}
	}
}

// Property: (Z_q, +, ·) satisfies the ring axioms on canonical residues.
func TestRingAxiomsQuick(t *testing.T) {
	for _, q := range []uint32{7681, 12289} {
		m := mustModulus(q)
		canon := func(x uint32) uint32 { return x % q }

		addComm := func(a, b uint32) bool {
			a, b = canon(a), canon(b)
			return m.Add(a, b) == m.Add(b, a)
		}
		mulComm := func(a, b uint32) bool {
			a, b = canon(a), canon(b)
			return m.Mul(a, b) == m.Mul(b, a)
		}
		addAssoc := func(a, b, c uint32) bool {
			a, b, c = canon(a), canon(b), canon(c)
			return m.Add(m.Add(a, b), c) == m.Add(a, m.Add(b, c))
		}
		mulAssoc := func(a, b, c uint32) bool {
			a, b, c = canon(a), canon(b), canon(c)
			return m.Mul(m.Mul(a, b), c) == m.Mul(a, m.Mul(b, c))
		}
		distrib := func(a, b, c uint32) bool {
			a, b, c = canon(a), canon(b), canon(c)
			return m.Mul(a, m.Add(b, c)) == m.Add(m.Mul(a, b), m.Mul(a, c))
		}
		subInverse := func(a, b uint32) bool {
			a, b = canon(a), canon(b)
			return m.Add(m.Sub(a, b), b) == a
		}
		negInverse := func(a uint32) bool {
			a = canon(a)
			return m.Add(a, m.Sub(0, a)) == 0
		}
		for name, f := range map[string]interface{}{
			"addComm": addComm, "mulComm": mulComm,
			"addAssoc": addAssoc, "mulAssoc": mulAssoc,
			"distrib": distrib, "subInverse": subInverse, "negInverse": negInverse,
		} {
			if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
				t.Errorf("q=%d property %s: %v", q, name, err)
			}
		}
	}
}

func TestExp(t *testing.T) {
	m := mustModulus(7681)
	if got := m.Exp(3, 0); got != 1 {
		t.Errorf("3^0 = %d, want 1", got)
	}
	if got := m.Exp(0, 5); got != 0 {
		t.Errorf("0^5 = %d, want 0", got)
	}
	// Fermat: a^(q-1) = 1 for a != 0.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		a := rng.Uint32()%(m.Q-1) + 1
		if got := m.Exp(a, uint64(m.Q)-1); got != 1 {
			t.Fatalf("%d^(q-1) = %d, want 1", a, got)
		}
	}
	// Exponent laws against iterated multiplication.
	a := uint32(1234)
	acc := uint32(1)
	for e := uint64(0); e < 50; e++ {
		if got := m.Exp(a, e); got != acc {
			t.Fatalf("Exp(%d,%d) = %d, want %d", a, e, got, acc)
		}
		acc = m.Mul(acc, a)
	}
}

func TestInv(t *testing.T) {
	for _, q := range []uint32{7681, 12289, 17} {
		m := mustModulus(q)
		for a := uint32(1); a < q && a < 3000; a++ {
			inv := m.Inv(a)
			if m.Mul(a, inv) != 1 {
				t.Fatalf("q=%d: Inv(%d)=%d but a*inv=%d", q, a, inv, m.Mul(a, inv))
			}
		}
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	mustModulus(7681).Inv(0)
}

func TestFindGenerator(t *testing.T) {
	for _, q := range testModuli {
		m := mustModulus(q)
		g := m.FindGenerator()
		if !m.IsPrimitiveRoot(g, uint64(q)-1) {
			t.Errorf("q=%d: FindGenerator()=%d is not primitive", q, g)
		}
	}
}

func TestRootOfUnity(t *testing.T) {
	m := mustModulus(7681)
	// 7681 - 1 = 7680 = 2^9 * 3 * 5, so 512-th roots exist but 1024-th do not.
	w, err := m.RootOfUnity(512)
	if err != nil {
		t.Fatalf("RootOfUnity(512): %v", err)
	}
	if !m.IsPrimitiveRoot(w, 512) {
		t.Errorf("RootOfUnity(512) = %d not primitive", w)
	}
	if _, err := m.RootOfUnity(1024); err == nil {
		t.Error("RootOfUnity(1024) mod 7681 should fail (1024 ∤ 7680)")
	}
	if _, err := m.RootOfUnity(0); err == nil {
		t.Error("RootOfUnity(0) should fail")
	}

	m2 := mustModulus(12289)
	// 12288 = 2^12 * 3: 2048-th roots exist (needed for n=1024 negacyclic).
	w2, err := m2.RootOfUnity(2048)
	if err != nil {
		t.Fatalf("RootOfUnity(2048) mod 12289: %v", err)
	}
	if !m2.IsPrimitiveRoot(w2, 2048) {
		t.Errorf("RootOfUnity(2048) = %d not primitive", w2)
	}
}

func TestNTTRoots(t *testing.T) {
	cases := []struct {
		q uint32
		n int
	}{
		{7681, 256},  // P1
		{12289, 512}, // P2
		{12289, 256},
		{257, 128},
	}
	for _, c := range cases {
		m := mustModulus(c.q)
		omega, psi, err := m.NTTRoots(c.n)
		if err != nil {
			t.Fatalf("NTTRoots(q=%d,n=%d): %v", c.q, c.n, err)
		}
		if m.Mul(psi, psi) != omega {
			t.Errorf("q=%d n=%d: psi^2 != omega", c.q, c.n)
		}
		if !m.IsPrimitiveRoot(omega, uint64(c.n)) {
			t.Errorf("q=%d n=%d: omega not primitive n-th root", c.q, c.n)
		}
		if !m.IsPrimitiveRoot(psi, uint64(2*c.n)) {
			t.Errorf("q=%d n=%d: psi not primitive 2n-th root", c.q, c.n)
		}
		// psi^n = -1 is the negacyclic identity.
		if m.Exp(psi, uint64(c.n)) != c.q-1 {
			t.Errorf("q=%d n=%d: psi^n != -1", c.q, c.n)
		}
	}
	// Failure cases.
	m := mustModulus(7681)
	if _, _, err := m.NTTRoots(512); err == nil {
		t.Error("NTTRoots(q=7681,n=512) should fail: needs 1024-th roots")
	}
	if _, _, err := m.NTTRoots(3); err == nil {
		t.Error("NTTRoots(n=3) should fail: not a power of two")
	}
	if _, _, err := m.NTTRoots(0); err == nil {
		t.Error("NTTRoots(n=0) should fail")
	}
}

func TestBitReverse(t *testing.T) {
	cases := []struct {
		in   uint32
		bits uint
		want uint32
	}{
		{0b000, 3, 0b000},
		{0b001, 3, 0b100},
		{0b011, 3, 0b110},
		{0b101, 3, 0b101},
		{1, 8, 128},
		{0xF0, 8, 0x0F},
	}
	for _, c := range cases {
		if got := BitReverse(c.in, c.bits); got != c.want {
			t.Errorf("BitReverse(%#b,%d) = %#b, want %#b", c.in, c.bits, got, c.want)
		}
	}
	// Involution property.
	for bits := uint(1); bits <= 12; bits++ {
		for i := uint32(0); i < 1<<bits; i += 7 {
			if got := BitReverse(BitReverse(i, bits), bits); got != i {
				t.Fatalf("BitReverse not involutive at i=%d bits=%d", i, bits)
			}
		}
	}
}

func TestBitReversePermute(t *testing.T) {
	a := []uint32{0, 1, 2, 3, 4, 5, 6, 7}
	BitReversePermute(a)
	want := []uint32{0, 4, 2, 6, 1, 5, 3, 7}
	for i := range a {
		if a[i] != want[i] {
			t.Fatalf("BitReversePermute = %v, want %v", a, want)
		}
	}
	// Applying twice restores the original.
	BitReversePermute(a)
	for i := range a {
		if a[i] != uint32(i) {
			t.Fatalf("double permute not identity: %v", a)
		}
	}
}

func TestBitReversePermutePanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two length")
		}
	}()
	BitReversePermute(make([]uint32, 6))
}

func TestIsPrimeSmall(t *testing.T) {
	primes := map[uint64]bool{
		2: true, 3: true, 5: true, 7: true, 7681: true, 12289: true,
		4: false, 1: false, 0: false, 7683: false, 12288: false,
		3215031751:    false, // strong pseudoprime to bases 2,3,5,7
		(1 << 61) - 1: true,  // Mersenne prime
	}
	for n, want := range primes {
		if got := isPrime(n); got != want {
			t.Errorf("isPrime(%d) = %v, want %v", n, got, want)
		}
	}
}

func BenchmarkReduce(b *testing.B) {
	m := mustModulus(7681)
	x := uint64(123456789)
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink = m.Reduce(x)
	}
	_ = sink
}

func BenchmarkMul(b *testing.B) {
	m := mustModulus(7681)
	var sink uint32 = 5
	for i := 0; i < b.N; i++ {
		sink = m.Mul(sink, 4321)
	}
	_ = sink
}
