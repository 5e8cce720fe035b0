package gauss

import (
	"math"
	"testing"

	"ringlwe/internal/rng"
)

func TestRejectionDistribution(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	mat := P1Matrix()
	r := NewRejectionSampler(mat, rng.NewXorshift128(99))
	const N = 300000
	hist := Histogram(r, N)
	stat, df := ChiSquare(mat, hist, N, 8)
	crit := ChiSquareCritical(df, 0.001)
	if stat > crit {
		t.Errorf("rejection χ² = %.1f > %.1f (df %d)", stat, crit, df)
	}
}

func TestRejectionAcceptanceRate(t *testing.T) {
	mat := P1Matrix()
	r := NewRejectionSampler(mat, rng.NewXorshift128(7))
	for i := 0; i < 50000; i++ {
		r.SampleInt()
	}
	// Expected acceptance: candidates are magnitudes in [0, 64), so the mean
	// accepted mass per attempt is (Σ_{x≥0} ρ(x) − ρ(0)/2)/64 = (S/2)/64 =
	// σ√(2π)/128 ≈ 0.088 for P1 (the ρ(0)/2 term is the (0, negative-sign)
	// resample).
	want := mat.Sigma * math.Sqrt(2*math.Pi) / 128
	got := float64(r.Accepted) / float64(r.Attempts)
	if math.Abs(got-want) > 0.02 {
		t.Errorf("acceptance rate %.3f, want ≈ %.3f", got, want)
	}
	if r.Attempts <= r.Accepted {
		t.Error("rejection sampler never rejected")
	}
}

func TestRejectionRange(t *testing.T) {
	mat := P1Matrix()
	r := NewRejectionSampler(mat, rng.NewXorshift128(8))
	for i := 0; i < 20000; i++ {
		v := r.SampleInt()
		if v <= -int32(mat.Rows) || v >= int32(mat.Rows) {
			t.Fatalf("sample %d outside (−%d, %d)", v, mat.Rows, mat.Rows)
		}
	}
}

func BenchmarkRejectionSample(b *testing.B) {
	r := NewRejectionSampler(P1Matrix(), rng.NewXorshift128(1))
	for i := 0; i < b.N; i++ {
		r.SampleInt()
	}
}
