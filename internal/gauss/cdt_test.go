package gauss

import (
	"math"
	"testing"

	"ringlwe/internal/rng"
)

func TestCDTTableMonotone(t *testing.T) {
	c := NewCDTSampler(P1Matrix(), rng.NewXorshift128(1))
	for i := 1; i < len(c.cum); i++ {
		if c.cum[i] < c.cum[i-1] {
			t.Fatalf("CDT not monotone at %d", i)
		}
	}
	if c.cum[len(c.cum)-1] != ^uint64(0) {
		t.Fatal("CDT not saturated")
	}
	if c.TableBytes() != 8*55 {
		t.Fatalf("TableBytes = %d, want 440", c.TableBytes())
	}
}

// The constant-time lookup must agree with binary search on every input;
// drive both from the same bit stream.
func TestCDTConstantTimeMatchesBinarySearch(t *testing.T) {
	a := NewCDTSampler(P1Matrix(), rng.NewXorshift128(42))
	b := NewCDTSampler(P1Matrix(), rng.NewXorshift128(42))
	b.ConstantTime = true
	for i := 0; i < 100000; i++ {
		va, vb := a.SampleInt(), b.SampleInt()
		if va != vb {
			t.Fatalf("sample %d: search %d, constant-time %d", i, va, vb)
		}
	}
}

// Directly check the inversion on crafted uniform values around the bucket
// boundaries.
func TestCDTBoundaryInversion(t *testing.T) {
	c := NewCDTSampler(P1Matrix(), rng.NewXorshift128(1))
	lookup := func(u uint64) uint32 {
		lo, hi := 0, len(c.cum)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if u < c.cum[mid] {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return uint32(lo)
	}
	ct := func(u uint64) uint32 {
		var idx uint32
		for _, v := range c.cum {
			if v <= u {
				idx++
			}
		}
		if idx >= uint32(len(c.cum)) {
			idx = uint32(len(c.cum) - 1)
		}
		return idx
	}
	for i := 0; i < len(c.cum)-1; i++ {
		b := c.cum[i]
		for _, u := range []uint64{b - 1, b, b + 1} {
			if lookup(u) != ct(u) {
				t.Fatalf("boundary %d value %d: search %d, scan %d", i, u, lookup(u), ct(u))
			}
		}
	}
	if lookup(0) != 0 {
		t.Error("u=0 must map to magnitude 0")
	}
	if lookup(^uint64(0)) != uint32(len(c.cum)-1) {
		t.Error("u=max must map to the largest magnitude")
	}
}

func TestCDTDistribution(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	mat := P1Matrix()
	c := NewCDTSampler(mat, rng.NewXorshift128(2025))
	const N = 400000
	hist := Histogram(c, N)
	stat, df := ChiSquare(mat, hist, N, 8)
	crit := ChiSquareCritical(df, 0.001)
	if stat > crit {
		t.Errorf("CDT χ² = %.1f > %.1f (df %d)", stat, crit, df)
	}
}

func TestCDTMoments(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	mat := P2Matrix()
	c := NewCDTSampler(mat, rng.NewXorshift128(3))
	mean, std := Moments(c, 200000)
	if math.Abs(mean) > 0.05 {
		t.Errorf("mean %v", mean)
	}
	if math.Abs(std-mat.Sigma) > 0.03*mat.Sigma {
		t.Errorf("std %v, want ≈ %v", std, mat.Sigma)
	}
}

func TestCDTSampleMod(t *testing.T) {
	a := NewCDTSampler(P1Matrix(), rng.NewXorshift128(6))
	b := NewCDTSampler(P1Matrix(), rng.NewXorshift128(6))
	const q = 7681
	for i := 0; i < 100000; i++ {
		v := a.SampleInt()
		m := b.SampleMod(q)
		var want uint32
		if v < 0 {
			want = q - uint32(-v)
		} else {
			want = uint32(v)
		}
		if m != want {
			t.Fatalf("sample %d: %d vs %d", i, v, m)
		}
	}
	// SampleMod draws the sign bit for magnitude 0 too.
	if a.pool.Refills != b.pool.Refills || a.pool.Remaining() != b.pool.Remaining() {
		t.Fatal("SampleMod and SampleInt consumed different amounts of randomness")
	}
}

func BenchmarkCDTSample(b *testing.B) {
	c := NewCDTSampler(P1Matrix(), rng.NewXorshift128(1))
	for i := 0; i < b.N; i++ {
		c.SampleInt()
	}
}

func BenchmarkCDTSampleConstantTime(b *testing.B) {
	c := NewCDTSampler(P1Matrix(), rng.NewXorshift128(1))
	c.ConstantTime = true
	for i := 0; i < b.N; i++ {
		c.SampleInt()
	}
}
