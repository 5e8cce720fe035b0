package gauss

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"ringlwe/internal/rng"
)

func TestCDTTableMonotone(t *testing.T) {
	cum := NewCDTTable(P1Matrix())
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("CDT not monotone at %d", i)
		}
	}
	if cum[len(cum)-1] != ^uint64(0) {
		t.Fatal("CDT not saturated")
	}
	if len(cum) != 55 {
		t.Fatalf("CDT has %d entries, want one per matrix row (55)", len(cum))
	}
}

// TestCDTConstantTimeMatchesBinarySearch drives CDTSampler and a plain
// binary-search sampler over the same table from the same bit stream (the
// same 22+21+21-bit uniform draw and sign bit) and requires identical
// samples: the fixed-shape masked search inverts exactly like the
// data-dependent one on 100000 random inputs.
func TestCDTConstantTimeMatchesBinarySearch(t *testing.T) {
	mat := P1Matrix()
	c := NewCDTSampler(mat, rng.NewXorshift128(42))
	cum := NewCDTTable(mat)
	pool := rng.NewBitPool(rng.NewXorshift128(42))
	search := func() int32 {
		u := uint64(pool.Bits(22)) | uint64(pool.Bits(21))<<22 | uint64(pool.Bits(21))<<43
		lo, hi := 0, len(cum)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if u < cum[mid] {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		if pool.Bit() == 1 {
			return -int32(lo)
		}
		return int32(lo)
	}
	for i := 0; i < 100000; i++ {
		if got, want := c.SampleInt(), search(); got != want {
			t.Fatalf("sample %d: constant-time %d, binary search %d", i, got, want)
		}
	}
}

// cdtCount is the inversion oracle: the count of entries ≤ u, clamped to
// the last row.
func cdtCount(cum []uint64, u uint64) uint32 {
	var n uint32
	for _, v := range cum {
		if v <= u {
			n++
		}
	}
	return min(n, uint32(len(cum)-1))
}

// TestCDTBoundaryInversion checks CDT.Magnitude against the linear count on
// every bucket boundary of the P1, P2, A1 and B1 tables: u = 0, cum[i]−1,
// cum[i], cum[i]+1 and 2^64−1. The matrices are built the way
// core.NewRNSParams builds them (λ = 90); B1 shares P1's s = 11.31.
func TestCDTBoundaryInversion(t *testing.T) {
	for _, set := range []struct {
		name string
		sNum int64
	}{{"P1", 1131}, {"P2", 1218}, {"A1", 800}, {"B1", 1131}} {
		rows, cols := Size(float64(set.sNum)/100/math.Sqrt(2*math.Pi), 90)
		m, err := NewMatrixFromS(set.sNum, 100, rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		cum := NewCDTTable(m)
		cdt := NewCDT(m)
		us := []uint64{0, ^uint64(0)}
		for _, b := range cum {
			us = append(us, b-1, b, b+1)
		}
		for _, u := range us {
			if got, want := cdt.Magnitude(u), cdtCount(cum, u); got != want {
				t.Fatalf("%s: Magnitude(%#x) = %d, count of entries ≤ u = %d", set.name, u, got, want)
			}
		}
		if got := cdt.Magnitude(^uint64(0)); got != uint32(rows-1) {
			t.Errorf("%s: u = 2^64−1 maps to %d, want the last row %d", set.name, got, rows-1)
		}
	}
}

// TestCDTSamplerStreamDigest pins CDTSampler's output stream over seeded
// sources: the SHA-256 of 65536 signed samples per parameter set. The
// digests were computed when CDTSampler still had its own binary search,
// so they also pin that moving to CDT.Magnitude moved no sample.
func TestCDTSamplerStreamDigest(t *testing.T) {
	for _, tc := range []struct {
		name string
		mat  *Matrix
		want string
	}{
		{"P1", P1Matrix(), "e27bba8127ba1b522bc6f7f8b85563f1"},
		{"P2", P2Matrix(), "3c21694ec16b7fa087b04e85232ed0e0"},
	} {
		c := NewCDTSampler(tc.mat, rng.NewXorshift128(2026))
		h := sha256.New()
		var b [4]byte
		for range 1 << 16 {
			binary.LittleEndian.PutUint32(b[:], uint32(c.SampleInt()))
			h.Write(b[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)[:16]); got != tc.want {
			t.Errorf("%s: CDTSampler stream digest %s, want %s", tc.name, got, tc.want)
		}
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

func BenchmarkCDTSample(b *testing.B) {
	c := NewCDTSampler(P1Matrix(), rng.NewXorshift128(1))
	for i := 0; i < b.N; i++ {
		c.SampleInt()
	}
}
