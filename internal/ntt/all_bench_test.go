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
// the vector engine, falling back to barrett if vector refuses a modulus.
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

// The lanes below time the Runner's serial channel loops at n=1024. Their
// names keep the "/serial" suffix the CI regression gate matches against
// the committed BENCH baselines.

// BenchmarkRNSForwardAll measures the forward NTT over k residue channels.
func BenchmarkRNSForwardAll(b *testing.B) {
	for k := 1; k <= 4; k++ {
		b.Run(fmt.Sprintf("k=%d/serial", k), func(b *testing.B) {
			r := benchRunner(b, k)
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

// BenchmarkRNSMulAll measures the pointwise product — the spectral half of
// an RNS encrypt — over the same channel counts.
func BenchmarkRNSMulAll(b *testing.B) {
	for k := 1; k <= 4; k++ {
		b.Run(fmt.Sprintf("k=%d/serial", k), func(b *testing.B) {
			r := benchRunner(b, k)
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

// BenchmarkRNSAddAll measures the coefficient-wise sum at B1's shape
// (n=1024, k=3), the memory-bound op of homomorphic aggregation.
func BenchmarkRNSAddAll(b *testing.B) {
	b.Run("k=3/serial", func(b *testing.B) {
		r := benchRunner(b, 3)
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
