package ntt

import (
	"fmt"
	"math/rand"
	"testing"

	"ringlwe/internal/zq"
)

// rnsBenchModuli are the B1 residue primes plus a fourth of the same shape
// (29 bits, ≡ 1 mod 2048, vector-safe), so the k=4 lane measures the basis
// one step past B1.
var rnsBenchModuli = []uint32{536856577, 536823809, 536819713, 536813569}

// benchRunner builds a Runner over the first k bench moduli at n=1024 with
// the fastest engine the moduli admit (vector where available, barrett as
// the portable floor — same fallback rule as the CPU dispatcher).
func benchRunner(b *testing.B, k int) *Runner {
	b.Helper()
	engs := make([]Engine, k)
	for i, q := range rnsBenchModuli[:k] {
		m, err := zq.NewModulus(q)
		if err != nil {
			b.Fatal(err)
		}
		tb, err := NewTables(m, 1024)
		if err != nil {
			b.Fatal(err)
		}
		eng, err := NewEngine("vector", tb)
		if err != nil {
			eng, err = NewEngine("barrett", tb)
			if err != nil {
				b.Fatal(err)
			}
		}
		engs[i] = eng
	}
	r, err := NewRunner(engs)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkRNSForwardAll measures the channel-parallel forward NTT
// schedule over k residue channels, serial vs parallel dispatch. The
// parallel lane forces the pool schedule even on one CPU (where it cannot
// win); the speedup column is meaningful on multi-core runners only.
func BenchmarkRNSForwardAll(b *testing.B) {
	for k := 1; k <= 4; k++ {
		for _, mode := range []struct {
			name  string
			force bool
		}{{"serial", false}, {"parallel", true}} {
			b.Run(fmt.Sprintf("k=%d/%s", k, mode.name), func(b *testing.B) {
				r := benchRunner(b, k)
				r.ForceParallel = mode.force
				r.ForceSerial = !mode.force
				rng := rand.New(rand.NewSource(1))
				a := randResidues(rng, r)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r.ForwardAll(a)
				}
			})
		}
	}
}

// BenchmarkRNSMulAll measures the pointwise-product schedule — the
// spectral half of an RNS encrypt — under the same lane grid.
func BenchmarkRNSMulAll(b *testing.B) {
	for k := 1; k <= 4; k++ {
		for _, mode := range []struct {
			name  string
			force bool
		}{{"serial", false}, {"parallel", true}} {
			b.Run(fmt.Sprintf("k=%d/%s", k, mode.name), func(b *testing.B) {
				r := benchRunner(b, k)
				r.ForceParallel = mode.force
				r.ForceSerial = !mode.force
				rng := rand.New(rand.NewSource(2))
				x := randResidues(rng, r)
				y := randResidues(rng, r)
				c := make(Poly, len(x))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r.MulAll(c, x, y)
				}
			})
		}
	}
}

// BenchmarkRNSAddAll measures the coefficient-wise sum schedule at B1's
// shape (n=1024, k=3), serial vs parallel dispatch. Addition is
// memory-bound, so this lane decides whether AddAll should fan out at all.
func BenchmarkRNSAddAll(b *testing.B) {
	const k = 3
	for _, mode := range []struct {
		name  string
		force bool
	}{{"serial", false}, {"parallel", true}} {
		b.Run(fmt.Sprintf("k=%d/%s", k, mode.name), func(b *testing.B) {
			r := benchRunner(b, k)
			r.ForceParallel = mode.force
			r.ForceSerial = !mode.force
			rng := rand.New(rand.NewSource(3))
			x := randResidues(rng, r)
			y := randResidues(rng, r)
			c := make(Poly, len(x))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.AddAll(c, x, y)
			}
		})
	}
}
