package sampler

import (
	"testing"
	"unsafe"

	"ringlwe/internal/gauss"
	"ringlwe/internal/rng"
)

// The wide engine's correctness rides on the shared registry tests
// (TestTailBound, TestStatsAccounting, TestSamplerZeroAlloc, the
// chi-square differential fuzz target), which iterate every registered
// backend. This file covers what those cannot: the construction gate and
// the per-q negation table.

// TestWideConstructionGate pins the ≥ 13 column requirement the LUT-2
// resolution chain depends on (ResumeWalk restarts at column 13) and the
// 256-entry LUT-1 the probes index without bounds checks.
func TestWideConstructionGate(t *testing.T) {
	m, err := gauss.NewMatrix(4.5, 55, 12)
	if err != nil {
		t.Fatal(err)
	}
	// The factory rejects on Matrix.Cols alone, before the LUTs matter.
	if _, err := New("wide-ky", &Config{Matrix: m}, rng.NewXorshift128(1)); err == nil {
		t.Fatal("wide-ky accepted a matrix too narrow for its resolution chain")
	}
	// A wide enough matrix without its LUT-1 is refused, not a panic.
	if _, err := New("wide-ky", &Config{Matrix: gauss.P1Matrix()}, rng.NewXorshift128(1)); err == nil {
		t.Fatal("wide-ky accepted a config without a 256-entry LUT-1")
	}
}

// TestWideRetarget pins the negation table across a modulus switch: the
// same engine sampling under q then q' must fold signs against the
// current modulus, not the first one seen.
func TestWideRetarget(t *testing.T) {
	cfg := testConfig(t)
	e, err := New("wide-ky", cfg, rng.NewXorshift128(77))
	if err != nil {
		t.Fatal(err)
	}
	maxMag := uint32(cfg.Matrix.Rows - 1)
	dst := make([]uint32, 256)
	for _, q := range []uint32{7681, 12289, 7681} {
		sawNeg := false
		for round := 0; round < 8; round++ {
			e.SamplePolyInto(dst, q)
			for i, v := range dst {
				if v >= q {
					t.Fatalf("q=%d: coeff %d = %d out of range", q, i, v)
				}
				if v > maxMag && v < q-maxMag {
					t.Fatalf("q=%d: coeff %d = %d beyond the ±%d tail cut", q, i, v, maxMag)
				}
				sawNeg = sawNeg || v > maxMag
			}
		}
		if !sawNeg {
			t.Fatalf("q=%d: no negative residues in 2048 samples; sign fold is dead", q)
		}
	}
}

// TestWideEngineSizeClass pins the engine, random-byte buffer included,
// to the 1408-byte allocation size class on 64-bit targets. The runtime
// puts an 8-byte header in front of a pointerful object over 512 bytes,
// so the struct may take 1400. A field or a larger wideChunk that crosses
// it moves every engine to the next class (1536 or 1792 bytes), which
// shows as live heap on every workspace.
func TestWideEngineSizeClass(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("size class measured for 64-bit targets")
	}
	if n := unsafe.Sizeof(wideEngine{}); n > 1400 {
		t.Fatalf("wideEngine is %d bytes, past the 1408-byte size class with its 8-byte header", n)
	}
}

// TestWideLargeSigma runs wide-ky from matrices with more than 128 rows,
// where a LUT-1 miss can resolve to a magnitude the 7-bit LUT byte cannot
// hold: σ = 20 (240 rows, the largesigma_test.go matrix) and σ = 40 (480
// rows, the largest σ of this lattice whose LUT-2 still fits; about one
// sample in 700 has magnitude ≥ 128). Each must keep the tail bound and
// the counter invariants, reach magnitudes past 127 about as often as the
// matrix says, and match knuth-yao over the same matrix by a two-sample
// chi-square.
func TestWideLargeSigma(t *testing.T) {
	if testing.Short() {
		t.Skip("builds large matrices")
	}
	const q = 12289
	const total = 1 << 18
	for _, sigma := range []float64{20, 40} {
		rows, cols := gauss.Size(sigma, 90)
		m, err := gauss.NewMatrix(sigma, rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := NewConfig(m)
		if err != nil {
			t.Fatal(err)
		}
		wide, err := New("wide-ky", cfg, rng.NewXorshift128(uint64(sigma)))
		if err != nil {
			t.Fatal(err)
		}
		ky, err := New("knuth-yao", cfg, rng.NewXorshift128(uint64(sigma)+1))
		if err != nil {
			t.Fatal(err)
		}

		maxMag := uint32(rows - 1)
		hist := make(map[int32]uint64)
		var over127 int
		dst := make([]uint32, 256)
		for drawn := 0; drawn < total; drawn += len(dst) {
			wide.SamplePolyInto(dst, q)
			for i, v := range dst {
				if v >= q || (v > maxMag && v < q-maxMag) {
					t.Fatalf("σ=%v: coeff %d = %d outside [0, q) or beyond the ±%d tail cut", sigma, i, v, maxMag)
				}
				s := int32(v)
				if v > q/2 {
					s -= q
				}
				hist[s]++
				if s >= 128 || s <= -128 {
					over127++
				}
			}
		}
		var pOver float64
		for r := 128; r < rows; r++ {
			pOver += m.TrueProb(r)
		}
		if want := pOver * total; want >= 40 && float64(over127) < want/2 {
			t.Errorf("σ=%v: %d samples with magnitude ≥ 128, want ≈ %.0f", sigma, over127, want)
		}

		st := wide.Stats()
		if st.Samples != total {
			t.Errorf("σ=%v: Samples = %d, want %d", sigma, st.Samples, total)
		}
		if got := st.LUT1Hits + st.LUT2Hits + st.ScanResolved; got != st.Samples {
			t.Errorf("σ=%v: LUT1+LUT2+Scan = %d, want Samples = %d", sigma, got, st.Samples)
		}

		stat, df := twoSampleChiSquare(hist, signedHist(ky, q, total), rows, 20)
		if crit := gauss.ChiSquareCritical(df, 1e-9); stat > crit {
			t.Errorf("σ=%v: wide-ky vs knuth-yao χ² = %.1f with %d df exceeds critical %.1f", sigma, stat, df, crit)
		}
		t.Logf("σ=%v: %d of %d past 127 (expected %.0f), χ² = %.1f with %d df", sigma, over127, total, pOver*total, stat, df)
	}
}

// twoSampleChiSquare tests two equal-size histograms of signed samples in
// (−rows, rows) for a common distribution. Adjacent values are pooled
// until each bin holds at least minCount samples of both histograms
// together; a short last bin joins the one before it.
func twoSampleChiSquare(a, b map[int32]uint64, rows int, minCount uint64) (stat float64, df int) {
	type bin struct{ a, b uint64 }
	var bins []bin
	var cur bin
	for x := int32(1 - rows); x < int32(rows); x++ {
		cur.a += a[x]
		cur.b += b[x]
		if cur.a+cur.b >= minCount {
			bins = append(bins, cur)
			cur = bin{}
		}
	}
	if n := len(bins); n > 0 {
		bins[n-1].a += cur.a
		bins[n-1].b += cur.b
	}
	for _, c := range bins {
		d := float64(c.a) - float64(c.b)
		stat += d * d / float64(c.a+c.b)
	}
	return stat, len(bins) - 1
}
