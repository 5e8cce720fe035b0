package ntt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ringlwe/internal/zq"
)

// paperTables returns transform tables for both paper parameter sets plus a
// small dimension that keeps exhaustive checks cheap.
func paperTables(t testing.TB) []*Tables {
	t.Helper()
	cases := []struct {
		q uint32
		n int
	}{
		{7681, 256},  // P1
		{12289, 512}, // P2
		{257, 16},    // small, q ≡ 1 mod 32
	}
	var out []*Tables
	for _, c := range cases {
		tab, err := NewTables(mustModulus(c.q), c.n)
		if err != nil {
			t.Fatalf("NewTables(q=%d,n=%d): %v", c.q, c.n, err)
		}
		out = append(out, tab)
	}
	return out
}

// mustModulus is zq.NewModulus for the tests' known primes.
func mustModulus(q uint32) *zq.Modulus {
	m, err := zq.NewModulus(q)
	if err != nil {
		panic(err)
	}
	return m
}

func randPoly(rng *rand.Rand, t *Tables) Poly {
	p := make(Poly, t.N)
	for i := range p {
		p[i] = rng.Uint32() % t.M.Q
	}
	return p
}

func TestNewTablesRejectsBadDimensions(t *testing.T) {
	m := mustModulus(7681)
	for _, n := range []int{0, 1, 2, 3, 6, 100} {
		if _, err := NewTables(m, n); err == nil {
			t.Errorf("NewTables(n=%d): expected error", n)
		}
	}
	// q=7681 supports only n ≤ 256 (needs 2n | q-1 with q-1 = 2^9·3·5).
	if _, err := NewTables(m, 512); err == nil {
		t.Error("NewTables(q=7681,n=512): expected error")
	}
}

func TestTablesInvariants(t *testing.T) {
	for _, tab := range paperTables(t) {
		m := tab.M
		if m.Mul(tab.Psi, tab.Psi) != tab.Omega {
			t.Errorf("q=%d n=%d: psi²≠omega", m.Q, tab.N)
		}
		if m.Exp(tab.Psi, uint64(tab.N)) != m.Q-1 {
			t.Errorf("q=%d n=%d: psi^n≠-1", m.Q, tab.N)
		}
		if m.Mul(tab.NInv, uint32(tab.N)) != 1 {
			t.Errorf("q=%d n=%d: NInv wrong", m.Q, tab.N)
		}
		if len(tab.StageRoots) != int(tab.LogN) {
			t.Errorf("q=%d n=%d: %d stage roots, want %d", m.Q, tab.N, len(tab.StageRoots), tab.LogN)
		}
		for s, pair := range tab.StageRoots {
			mm := uint64(2) << uint(s)
			if !m.IsPrimitiveRoot(pair[0], mm) {
				t.Errorf("stage %d: ω_m not a primitive %d-th root", s, mm)
			}
			if m.Mul(pair[1], pair[1]) != pair[0] {
				t.Errorf("stage %d: (√ω_m)² ≠ ω_m", s)
			}
		}
		// PsiRev/PsiInvRev are elementwise inverses.
		for i := 0; i < tab.N; i++ {
			if m.Mul(tab.PsiRev[i], tab.PsiInvRev[i]) != 1 {
				t.Fatalf("PsiRev[%d]·PsiInvRev[%d] ≠ 1", i, i)
			}
		}
	}
}

// The transform definition: Forward must equal the direct evaluation
// Ã[i] = Σ_j a[j]·ψ^j·ω^(ij), stored at bit-reversed position.
func TestForwardMatchesDirectEvaluation(t *testing.T) {
	for _, tab := range paperTables(t) {
		if tab.N > 64 {
			continue // O(n²) direct evaluation; small case suffices
		}
		m := tab.M
		rng := rand.New(rand.NewSource(7))
		a := randPoly(rng, tab)
		want := make(Poly, tab.N)
		for i := 0; i < tab.N; i++ {
			var acc uint32
			for j := 0; j < tab.N; j++ {
				term := m.Mul(a[j], m.Exp(tab.Psi, uint64(j)))
				term = m.Mul(term, m.Exp(tab.Omega, uint64(i*j)%uint64(tab.N)))
				acc = m.Add(acc, term)
			}
			want[zq.BitReverse(uint32(i), tab.LogN)] = acc
		}
		got := append(Poly(nil), a...)
		tab.Forward(got)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("q=%d n=%d: Forward[%d]=%d want %d", m.Q, tab.N, i, got[i], want[i])
			}
		}
	}
}

func TestForwardInverseRoundTrip(t *testing.T) {
	for _, tab := range paperTables(t) {
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 20; trial++ {
			a := randPoly(rng, tab)
			b := append(Poly(nil), a...)
			tab.Forward(b)
			tab.Inverse(b)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("q=%d n=%d trial %d: roundtrip differs at %d", tab.M.Q, tab.N, trial, i)
				}
			}
		}
	}
}

func TestMulMatchesNaive(t *testing.T) {
	for _, tab := range paperTables(t) {
		rng := rand.New(rand.NewSource(13))
		for trial := 0; trial < 5; trial++ {
			a := randPoly(rng, tab)
			b := randPoly(rng, tab)
			want := tab.Naive(a, b)
			got := engineMul(&barrettEngine{tab}, a, b)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("q=%d n=%d: Mul differs from Naive at %d: %d vs %d",
						tab.M.Q, tab.N, i, got[i], want[i])
				}
			}
		}
	}
}

// Naive must respect the defining relation x^n = -1: multiplying by x rotates
// with sign flip.
func TestNaiveNegacyclicShift(t *testing.T) {
	tab := paperTables(t)[2] // small
	x := make(Poly, tab.N)
	x[1] = 1
	a := make(Poly, tab.N)
	for i := range a {
		a[i] = uint32(i + 1)
	}
	c := tab.Naive(a, x)
	if neg := tab.M.Sub(0, a[tab.N-1]); c[0] != neg {
		t.Errorf("c[0] = %d, want -a[n-1] = %d", c[0], neg)
	}
	for i := 1; i < tab.N; i++ {
		if c[i] != a[i-1] {
			t.Errorf("c[%d] = %d, want %d", i, c[i], a[i-1])
		}
	}
}

func TestForwardAlg3MatchesForward(t *testing.T) {
	for _, tab := range paperTables(t) {
		rng := rand.New(rand.NewSource(17))
		for trial := 0; trial < 10; trial++ {
			a := randPoly(rng, tab)
			ct := append(Poly(nil), a...)
			tab.Forward(ct)
			alg3 := append(Poly(nil), a...)
			tab.ForwardAlg3(alg3)
			for i := range ct {
				// ForwardAlg3 leaves the spectrum in natural order,
				// Forward in bit-reversed order.
				if alg3[i] != ct[zq.BitReverse(uint32(i), tab.LogN)] {
					t.Fatalf("q=%d n=%d: Alg3 spectrum differs at %d", tab.M.Q, tab.N, i)
				}
			}
		}
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	for _, tab := range paperTables(t) {
		rng := rand.New(rand.NewSource(19))
		a := randPoly(rng, tab)
		b := tab.Unpack(tab.Pack(a))
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("pack/unpack differs at %d", i)
			}
		}
	}
}

func TestForwardThreeMatchesThreeForwards(t *testing.T) {
	for _, tab := range paperTables(t) {
		rng := rand.New(rand.NewSource(37))
		a, b, c := randPoly(rng, tab), randPoly(rng, tab), randPoly(rng, tab)
		ra := append(Poly(nil), a...)
		rb := append(Poly(nil), b...)
		rc := append(Poly(nil), c...)
		tab.Forward(ra)
		tab.Forward(rb)
		tab.Forward(rc)
		tab.ForwardThree(a, b, c)
		for i := 0; i < tab.N; i++ {
			if a[i] != ra[i] || b[i] != rb[i] || c[i] != rc[i] {
				t.Fatalf("q=%d n=%d: ForwardThree differs at %d", tab.M.Q, tab.N, i)
			}
		}
	}
}

// Multiplication in the quotient ring is linear and commutative; check with
// randomized properties through the fast pipeline.
func TestMulPropertiesQuick(t *testing.T) {
	tab := paperTables(t)[0] // P1
	rng := rand.New(rand.NewSource(43))
	gen := func() Poly { return randPoly(rng, tab) }
	mul := func(a, b Poly) Poly { return engineMul(&barrettEngine{tab}, a, b) }

	commutes := func() bool {
		a, b := gen(), gen()
		x := mul(a, b)
		y := mul(b, a)
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	distributes := func() bool {
		a, b, c := gen(), gen(), gen()
		bc := make(Poly, tab.N)
		tab.Add(bc, b, c)
		left := mul(a, bc)
		x := mul(a, b)
		y := mul(a, c)
		right := make(Poly, tab.N)
		tab.Add(right, x, y)
		for i := range left {
			if left[i] != right[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(func(uint8) bool { return commutes() }, &quick.Config{MaxCount: 10}); err != nil {
		t.Errorf("commutativity: %v", err)
	}
	if err := quick.Check(func(uint8) bool { return distributes() }, &quick.Config{MaxCount: 10}); err != nil {
		t.Errorf("distributivity: %v", err)
	}
}

// The transform is linear: NTT(a+b) = NTT(a)+NTT(b).
func TestForwardLinearity(t *testing.T) {
	for _, tab := range paperTables(t) {
		rng := rand.New(rand.NewSource(47))
		a, b := randPoly(rng, tab), randPoly(rng, tab)
		sum := make(Poly, tab.N)
		tab.Add(sum, a, b)
		tab.Forward(sum)
		tab.Forward(a)
		tab.Forward(b)
		for i := range sum {
			if sum[i] != tab.M.Add(a[i], b[i]) {
				t.Fatalf("q=%d n=%d: linearity broken at %d", tab.M.Q, tab.N, i)
			}
		}
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	tab := paperTables(t)[2]
	short := make(Poly, tab.N-1)
	for name, f := range map[string]func(){
		"Forward":      func() { tab.Forward(short) },
		"Inverse":      func() { tab.Inverse(short) },
		"ForwardAlg3":  func() { tab.ForwardAlg3(short) },
		"Pack":         func() { tab.Pack(short) },
		"Unpack":       func() { tab.Unpack(make(PackedPoly, 1)) },
		"ForwardThree": func() { tab.ForwardThree(short, short, short) },
		"PointwiseMul": func() { tab.PointwiseMul(short, short, short) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic on length mismatch", name)
				}
			}()
			f()
		}()
	}
}

func BenchmarkForwardP1(b *testing.B) { benchForward(b, 7681, 256) }
func BenchmarkForwardP2(b *testing.B) { benchForward(b, 12289, 512) }
func benchForward(b *testing.B, q uint32, n int) {
	tab, err := NewTables(mustModulus(q), n)
	if err != nil {
		b.Fatal(err)
	}
	a := randPoly(rand.New(rand.NewSource(1)), tab)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Forward(a)
	}
}
