package ntt

import (
	"math/rand"
	"sync"
	"testing"

	"ringlwe/internal/zq"
)

// testRunner builds a Runner over k barrett engines with distinct
// NTT-friendly moduli for ring degree n.
func testRunner(t *testing.T, n, k int) *Runner {
	t.Helper()
	moduli := nttFriendly(t, n, k)
	engs := make([]Engine, k)
	for i, q := range moduli {
		m, err := zq.NewModulus(q)
		if err != nil {
			t.Fatalf("NewModulus(%d): %v", q, err)
		}
		tb, err := NewTables(m, n)
		if err != nil {
			t.Fatalf("NewTables(%d, %d): %v", q, n, err)
		}
		engs[i], err = NewEngine("barrett", tb)
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
	}
	r, err := NewRunner(engs)
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	return r
}

// nttFriendly returns k distinct primes q ≡ 1 (mod 2n) below 2^31.
func nttFriendly(t *testing.T, n, k int) []uint32 {
	t.Helper()
	var out []uint32
	for q := uint32(2*n + 1); len(out) < k; q += uint32(2 * n) {
		if isPrime(q) {
			out = append(out, q)
		}
	}
	return out
}

func isPrime(q uint32) bool {
	if q < 2 {
		return false
	}
	for d := uint32(2); d*d <= q; d++ {
		if q%d == 0 {
			return false
		}
	}
	return true
}

func randResidues(rng *rand.Rand, r *Runner) Poly {
	p := make(Poly, len(r.engs)*r.n)
	for i := 0; i < len(r.engs); i++ {
		q := r.Engines()[i].Tables().M.Q
		row := p[i*r.n : (i+1)*r.n]
		for j := range row {
			row[j] = rng.Uint32() % q
		}
	}
	return p
}

// runnerOps applies every Runner operation to copies of a, b, c and
// returns the results keyed by operation name. With perChannel set it
// makes the same calls on each channel's engine directly instead, which is
// the reference the Runner must match bit for bit.
func runnerOps(r *Runner, a, b, c Poly, s uint32, perChannel bool) map[string]Poly {
	k, n := len(r.engs), r.n
	fa, fb, fc := clonePoly(a), clonePoly(b), clonePoly(c)
	mul, add, sub, sc := make(Poly, k*n), make(Poly, k*n), make(Poly, k*n), make(Poly, k*n)
	rt := clonePoly(a)
	if perChannel {
		for i, eng := range r.Engines() {
			row := func(p Poly) Poly { return p[i*n : (i+1)*n] }
			eng.ForwardThree(row(fa), row(fb), row(fc))
			eng.PointwiseMul(row(mul), row(fa), row(fb))
			eng.Add(row(add), row(fa), row(fb))
			eng.Sub(row(sub), row(fa), row(fb))
			eng.ScalarMul(row(sc), row(fa), s)
			eng.Inverse(row(fc))
			eng.Forward(row(rt))
		}
	} else {
		r.ForwardThreeAll(fa, fb, fc)
		r.MulAll(mul, fa, fb)
		r.AddAll(add, fa, fb)
		r.SubAll(sub, fa, fb)
		r.ScalarMulAll(sc, fa, s)
		r.InverseAll(fc)
		r.ForwardAll(rt)
	}
	return map[string]Poly{
		"ForwardThreeAll/a": fa,
		"ForwardThreeAll/b": fb,
		"MulAll":            mul,
		"AddAll":            add,
		"SubAll":            sub,
		"ScalarMulAll":      sc,
		"InverseAll":        fc,
		"ForwardAll":        rt,
	}
}

// TestRunnerMatchesPerChannel checks every Runner operation against direct
// per-channel engine calls: the Runner must be pure plumbing with
// bit-identical results.
func TestRunnerMatchesPerChannel(t *testing.T) {
	const n = 64
	for _, k := range []int{1, 2, 3, 4} {
		r := testRunner(t, n, k)
		rng := rand.New(rand.NewSource(int64(42 + k)))
		a := randResidues(rng, r)
		b := randResidues(rng, r)
		c := randResidues(rng, r)
		// A full-width scalar, so every engine has to reduce it mod its q.
		s := rng.Uint32()

		want := runnerOps(r, a, b, c, s, true)
		for name, got := range runnerOps(r, a, b, c, s, false) {
			if !equalPoly(got, want[name]) {
				t.Errorf("k=%d: %s mismatch", k, name)
			}
		}

		// Forward/Inverse round trip through the Runner.
		rt := clonePoly(a)
		r.ForwardAll(rt)
		r.InverseAll(rt)
		if !equalPoly(rt, a) {
			t.Errorf("k=%d: ForwardAll/InverseAll round trip mismatch", k)
		}
	}
}

// TestRunnerConcurrentShared has eight goroutines share one Runner over
// k=3 channels at n=256, each on its own polynomials, and checks every
// operation against direct per-channel engine calls. Run under -race it
// pins that a Runner holds no per-call state, so one Runner can serve
// every workspace of a scheme.
func TestRunnerConcurrentShared(t *testing.T) {
	r := testRunner(t, 256, 3)
	const workers, rounds = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for round := 0; round < rounds; round++ {
				a := randResidues(rng, r)
				b := randResidues(rng, r)
				c := randResidues(rng, r)
				s := rng.Uint32()
				want := runnerOps(r, a, b, c, s, true)
				for name, got := range runnerOps(r, a, b, c, s, false) {
					if !equalPoly(got, want[name]) {
						t.Errorf("worker %d round %d: %s mismatch", w, round, name)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

func clonePoly(a Poly) Poly {
	out := make(Poly, len(a))
	copy(out, a)
	return out
}

func equalPoly(a, b Poly) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRunnerZeroAlloc pins the Runner's channel loops at zero
// steady-state allocations.
func TestRunnerZeroAlloc(t *testing.T) {
	r := testRunner(t, 256, 3)
	rng := rand.New(rand.NewSource(11))
	a := randResidues(rng, r)
	b := randResidues(rng, r)
	c := make(Poly, len(a))
	if n := testing.AllocsPerRun(50, func() {
		r.ForwardAll(a)
		r.MulAll(c, a, b)
		r.AddAll(c, c, b)
		r.InverseAll(a)
	}); n != 0 {
		t.Errorf("Runner allocates %v times per op, want 0", n)
	}
}
