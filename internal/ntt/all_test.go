package ntt

import (
	"math/rand"
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
	p := make(Poly, r.K()*r.N())
	for i := 0; i < r.K(); i++ {
		q := r.Engines()[i].Tables().M.Q
		row := p[i*r.N() : (i+1)*r.N()]
		for j := range row {
			row[j] = rng.Uint32() % q
		}
	}
	return p
}

// TestRunnerMatchesPerChannel checks every Runner operation, in both the
// serial and forced-parallel schedules, against direct per-channel engine
// calls: the schedule must be pure plumbing with bit-identical results.
func TestRunnerMatchesPerChannel(t *testing.T) {
	const n = 64
	for _, k := range []int{1, 2, 3, 4} {
		r := testRunner(t, n, k)
		rng := rand.New(rand.NewSource(int64(42 + k)))
		for _, force := range []bool{false, true} {
			r.ForceParallel = force

			a := randResidues(rng, r)
			b := randResidues(rng, r)
			c := randResidues(rng, r)
			scalars := make([]uint32, k)
			for i := range scalars {
				scalars[i] = rng.Uint32() % r.Engines()[i].Tables().M.Q
			}

			// Reference: per-channel engine calls on copies.
			refA, refB, refC := clonePoly(a), clonePoly(b), clonePoly(c)
			refMul := make(Poly, k*n)
			refAdd := make(Poly, k*n)
			refSub := make(Poly, k*n)
			refSc := make(Poly, k*n)
			for i := 0; i < k; i++ {
				eng := r.Engines()[i]
				ra, rb, rc := refA[i*n:(i+1)*n], refB[i*n:(i+1)*n], refC[i*n:(i+1)*n]
				eng.ForwardThree(ra, rb, rc)
				eng.PointwiseMul(refMul[i*n:(i+1)*n], ra, rb)
				eng.Add(refAdd[i*n:(i+1)*n], ra, rb)
				eng.Sub(refSub[i*n:(i+1)*n], ra, rb)
				eng.ScalarMul(refSc[i*n:(i+1)*n], ra, scalars[i])
				eng.Inverse(rc)
			}

			// Runner path on the originals.
			gotA, gotB, gotC := clonePoly(a), clonePoly(b), clonePoly(c)
			r.ForwardThreeAll(gotA, gotB, gotC)
			gotMul := make(Poly, k*n)
			r.MulAll(gotMul, gotA, gotB)
			gotAdd := make(Poly, k*n)
			r.AddAll(gotAdd, gotA, gotB)
			gotSub := make(Poly, k*n)
			r.SubAll(gotSub, gotA, gotB)
			gotSc := make(Poly, k*n)
			r.ScalarMulAll(gotSc, gotA, scalars)
			r.InverseAll(gotC)

			for name, pair := range map[string][2]Poly{
				"ForwardThreeAll/a": {gotA, refA},
				"ForwardThreeAll/b": {gotB, refB},
				"MulAll":            {gotMul, refMul},
				"AddAll":            {gotAdd, refAdd},
				"SubAll":            {gotSub, refSub},
				"ScalarMulAll":      {gotSc, refSc},
				"InverseAll":        {gotC, refC},
			} {
				if !equalPoly(pair[0], pair[1]) {
					t.Errorf("k=%d force=%v: %s mismatch", k, force, name)
				}
			}

			// Forward/Inverse round trip through the schedule.
			rt := clonePoly(a)
			r.ForwardAll(rt)
			r.InverseAll(rt)
			if !equalPoly(rt, a) {
				t.Errorf("k=%d force=%v: ForwardAll/InverseAll round trip mismatch", k, force)
			}
		}
	}
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

// TestRunnerZeroAlloc pins both dispatch schedules at zero steady-state
// allocations: the forced-parallel path must reuse the Runner's fixed job
// slots and the shared pool's buffered queue, never boxing per call.
func TestRunnerZeroAlloc(t *testing.T) {
	r := testRunner(t, 256, 3)
	rng := rand.New(rand.NewSource(11))
	a := randResidues(rng, r)
	b := randResidues(rng, r)
	c := make(Poly, len(a))
	for _, force := range []bool{false, true} {
		r.ForceParallel = force
		if n := testing.AllocsPerRun(50, func() {
			r.ForwardAll(a)
			r.MulAll(c, a, b)
			r.AddAll(c, c, b)
			r.InverseAll(a)
		}); n != 0 {
			t.Errorf("force=%v: schedule allocates %v times per op, want 0", force, n)
		}
	}
}
