package gauss

import (
	"math"
	"testing"

	"ringlwe/internal/rng"
)

// dyadicMatrix hand-builds a Matrix whose probabilities are exactly
// representable in `cols` bits, so Knuth-Yao behaviour can be verified
// exhaustively: every random tape of length cols terminates.
func dyadicMatrix(t *testing.T, rowsBits [][]int) *Matrix {
	t.Helper()
	rows := len(rowsBits)
	cols := len(rowsBits[0])
	m := &Matrix{
		Sigma:   1, // unused by the walk
		Rows:    rows,
		Cols:    cols,
		rowBits: make([][]uint64, rows),
		hw:      make([]int, cols),
	}
	for r, bits := range rowsBits {
		if len(bits) != cols {
			t.Fatalf("row %d has %d cols, want %d", r, len(bits), cols)
		}
		words := make([]uint64, (cols+63)/64)
		for j, b := range bits {
			if b == 1 {
				words[j/64] |= 1 << (j % 64)
				m.hw[j]++
			}
		}
		m.rowBits[r] = words
	}
	m.packColumns()
	return m
}

// enumerateWalk runs the reference walk over one fixed tape (bit i of tape
// drives level i+1) and returns the terminal row, or -1.
func enumerateWalk(m *Matrix, tape uint32) int {
	d := uint32(0)
	for col := 0; col < m.Cols; col++ {
		d = 2*d + (tape>>col)&1
		row, dOut := m.walkColumn(col, d)
		if row >= 0 {
			return row
		}
		d = dOut
	}
	return -1
}

// Exhaustive Knuth-Yao correctness on an exactly-representable distribution:
// p = [1/2, 1/4, 1/8, 1/8]. Every 3-bit tape must terminate, and the
// empirical distribution over all 8 equiprobable tapes must equal p exactly.
func TestKnuthYaoExactDyadicDistribution(t *testing.T) {
	m := dyadicMatrix(t, [][]int{
		{1, 0, 0}, // 1/2
		{0, 1, 0}, // 1/4
		{0, 0, 1}, // 1/8
		{0, 0, 1}, // 1/8
	})
	counts := make([]int, 4)
	for tape := uint32(0); tape < 8; tape++ {
		row := enumerateWalk(m, tape)
		if row < 0 {
			t.Fatalf("tape %03b did not terminate", tape)
		}
		counts[row]++
	}
	want := []int{4, 2, 1, 1} // ·1/8
	for r := range counts {
		if counts[r] != want[r] {
			t.Fatalf("row %d: %d/8 tapes, want %d/8 (counts %v)", r, counts[r], want[r], counts)
		}
	}
}

// A second dyadic case with more rows than one word can hold per column is
// covered by the paper matrices below; here check a skewed distribution.
func TestKnuthYaoExactSkewedDyadic(t *testing.T) {
	// p = [3/4, 3/16, 1/16]: expansions 0.11, 0.0011, 0.0001.
	m := dyadicMatrix(t, [][]int{
		{1, 1, 0, 0},
		{0, 0, 1, 1},
		{0, 0, 0, 1},
	})
	counts := make([]int, 3)
	for tape := uint32(0); tape < 16; tape++ {
		row := enumerateWalk(m, tape)
		if row < 0 {
			t.Fatalf("tape %04b did not terminate", tape)
		}
		counts[row]++
	}
	want := []int{12, 3, 1} // ·1/16
	for r := range counts {
		if counts[r] != want[r] {
			t.Fatalf("row %d: %d/16, want %d/16", r, counts[r], want[r])
		}
	}
}

// The fast column scanners must agree with the reference walk for every
// column and every feasible starting distance, on both paper matrices.
func TestScannersMatchReferenceWalk(t *testing.T) {
	for _, m := range []*Matrix{P1Matrix(), P2Matrix()} {
		for col := 0; col < m.Cols; col++ {
			maxD := uint32(m.HammingWeight(col)) + 3
			for d := uint32(0); d <= maxD; d++ {
				wantRow, wantD := m.walkColumn(col, d)
				gotRow, gotD, hit := scanColumnCLZ(m, col, d)
				if hit != (wantRow >= 0) {
					t.Fatalf("col %d d %d: clz hit=%v, reference row=%d", col, d, hit, wantRow)
				}
				if hit && int(gotRow) != wantRow {
					t.Fatalf("col %d d %d: clz row %d, reference %d", col, d, gotRow, wantRow)
				}
				if !hit && gotD != wantD {
					t.Fatalf("col %d d %d: clz dOut %d, reference %d", col, d, gotD, wantD)
				}
				bRow, bHit := scanColumnBasic(m, col, d)
				if bHit != (wantRow >= 0) || (bHit && int(bRow) != wantRow) {
					t.Fatalf("col %d d %d: basic scan mismatch", col, d)
				}
			}
		}
	}
}

// All three scan variants consume exactly one random bit per level, so with
// identical sources they must produce identical sample streams.
func TestScanVariantsProduceIdenticalStreams(t *testing.T) {
	mat := P1Matrix()
	mk := func(v ScanVariant) *Sampler {
		s, err := NewSampler(mat, rng.NewXorshift128(12345), WithVariant(v), WithLUT(false))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	basic, ham, clz := mk(ScanBasic), mk(ScanHamming), mk(ScanCLZ)
	for i := 0; i < 20000; i++ {
		a, b, c := basic.SampleInt(), ham.SampleInt(), clz.SampleInt()
		if a != b || b != c {
			t.Fatalf("sample %d: basic=%d hamming=%d clz=%d", i, a, b, c)
		}
	}
}

// Paper anchor (§III-B5): with σ = 11.31/√(2π), every failed LUT1 lookup has
// distance d ∈ [0,6], so LUT2 needs only 224 entries.
func TestLUTSizesReproducePaper(t *testing.T) {
	mat := P1Matrix()
	lut1, maxD, err := BuildLUT1(mat)
	if err != nil {
		t.Fatal(err)
	}
	if len(lut1) != 256 {
		t.Fatalf("LUT1 size %d, want 256", len(lut1))
	}
	if maxD != 6 {
		t.Fatalf("max LUT1 failure distance %d, want the paper's 6", maxD)
	}
	lut2, err := BuildLUT2(mat, maxD)
	if err != nil {
		t.Fatal(err)
	}
	if len(lut2) != 224 {
		t.Fatalf("LUT2 size %d, want the paper's 224", len(lut2))
	}
}

// LUT1 success rate over its 256 equiprobable indices must equal the DDG
// mass within 8 levels (Fig. 2's 97.27%), and LUT1+LUT2 the 13-level mass.
func TestLUTHitRatesMatchTerminationCDF(t *testing.T) {
	mat := P1Matrix()
	lut1, maxD, err := BuildLUT1(mat)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, e := range lut1 {
		if e&0x80 == 0 {
			hits++
		}
	}
	cdf := mat.TerminationCDF()
	gotRate := float64(hits) / 256
	// LUT1 resolves exactly the tapes that terminate within 8 levels, but
	// its rate is quantized to multiples of 1/256.
	if math.Abs(gotRate-cdf[7]) > 1.0/256 {
		t.Errorf("LUT1 hit rate %.4f vs CDF(8) %.4f", gotRate, cdf[7])
	}
	// Conditional LUT2 coverage: P(terminate ≤ 13 | fail ≤ 8) — verify via
	// total mass: failures after LUT2 should be ≈ 1 - CDF(13).
	lut2, err := BuildLUT2(mat, maxD)
	if err != nil {
		t.Fatal(err)
	}
	_ = lut2 // exercised statistically below
}

// LUT construction must be walk-exact: a LUT1 success entry equals the
// reference walk on the same 8-bit tape, and a failure entry carries the
// reference distance.
func TestLUT1MatchesReferenceWalkExactly(t *testing.T) {
	mat := P1Matrix()
	lut1, _, err := BuildLUT1(mat)
	if err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < 256; idx++ {
		d := uint32(0)
		term := -1
		for col := 0; col < 8 && term < 0; col++ {
			d = 2*d + uint32((idx>>col)&1)
			term, d = mat.walkColumn(col, d)
		}
		e := lut1[idx]
		if term >= 0 {
			if e&0x80 != 0 || int(e) != term {
				t.Fatalf("idx %d: entry %#x, reference terminal %d", idx, e, term)
			}
		} else if e != 0x80|uint8(d) {
			t.Fatalf("idx %d: entry %#x, reference distance %d", idx, e, d)
		}
	}
}

// The LUT sampler and the plain scanning sampler target the same
// distribution; χ² against the exact probabilities must pass for both, and
// for the paper matrices under every variant.
func TestSamplerDistributions(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	mat := P1Matrix()
	const N = 400000
	configs := []struct {
		name string
		opts []Option
	}{
		{"lut+clz", nil},
		{"scan-clz", []Option{WithLUT(false), WithVariant(ScanCLZ)}},
		{"scan-hamming", []Option{WithLUT(false), WithVariant(ScanHamming)}},
	}
	for i, cfg := range configs {
		s, err := NewSampler(mat, rng.NewXorshift128(uint64(1000+i)), cfg.opts...)
		if err != nil {
			t.Fatal(err)
		}
		hist := Histogram(s, N)
		stat, df := ChiSquare(mat, hist, N, 8)
		crit := ChiSquareCritical(df, 0.001)
		if stat > crit {
			t.Errorf("%s: χ² = %.1f > critical %.1f (df %d)", cfg.name, stat, crit, df)
		}
	}
}

func TestSamplerMoments(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	for _, mat := range []*Matrix{P1Matrix(), P2Matrix()} {
		s, err := NewSampler(mat, rng.NewXorshift128(777))
		if err != nil {
			t.Fatal(err)
		}
		const N = 300000
		mean, std := Moments(s, N)
		seMean := mat.Sigma / math.Sqrt(N)
		if math.Abs(mean) > 5*seMean {
			t.Errorf("σ=%.3f: mean %v exceeds 5 standard errors (%v)", mat.Sigma, mean, seMean)
		}
		if math.Abs(std-mat.Sigma) > 0.02*mat.Sigma {
			t.Errorf("σ=%.3f: sample std %v", mat.Sigma, std)
		}
	}
}

func TestSamplerHitCounters(t *testing.T) {
	mat := P1Matrix()
	s, err := NewSampler(mat, rng.NewXorshift128(31337))
	if err != nil {
		t.Fatal(err)
	}
	const N = 200000
	for i := 0; i < N; i++ {
		s.SampleInt()
	}
	if s.Samples != N {
		t.Fatalf("Samples = %d, want %d", s.Samples, N)
	}
	if s.LUT1Hits+s.LUT2Hits+s.ScanResolved != N {
		t.Fatalf("resolution counters do not add up: %d+%d+%d != %d",
			s.LUT1Hits, s.LUT2Hits, s.ScanResolved, N)
	}
	cdf := mat.TerminationCDF()
	rate1 := float64(s.LUT1Hits) / N
	if math.Abs(rate1-cdf[7]) > 0.005 {
		t.Errorf("LUT1 hit rate %.4f, want ≈ %.4f", rate1, cdf[7])
	}
	rate13 := float64(s.LUT1Hits+s.LUT2Hits) / N
	if math.Abs(rate13-cdf[12]) > 0.005 {
		t.Errorf("LUT1+2 hit rate %.4f, want ≈ %.4f", rate13, cdf[12])
	}
}

func TestSampleModMapping(t *testing.T) {
	mat := P1Matrix()
	const q = 7681
	s, err := NewSampler(mat, rng.NewXorshift128(5))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSampler(mat, rng.NewXorshift128(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50000; i++ {
		v := s.SampleInt()
		m := s2.SampleMod(q)
		var want uint32
		if v < 0 {
			want = q - uint32(-v)
		} else {
			want = uint32(v)
		}
		if m != want {
			t.Fatalf("sample %d: SampleInt %d vs SampleMod %d", i, v, m)
		}
	}
}

// branchyMod is the sign fold SampleMod used before CondNeg: the oracle
// the branch-free fold is checked against.
func branchyMod(mag, sign, q uint32) uint32 {
	if sign == 1 && mag != 0 {
		return q - mag
	}
	return mag
}

func TestCondNeg(t *testing.T) {
	for _, q := range []uint32{7681, 12289, 1<<31 - 1} {
		for _, mag := range []uint32{0, 1, 2, 17, 54, q / 2, q - 1} {
			for sign := uint32(0); sign < 2; sign++ {
				if got, want := CondNeg(mag, sign, q), branchyMod(mag, sign, q); got != want {
					t.Errorf("CondNeg(%d, %d, %d) = %d, want %d", mag, sign, q, got, want)
				}
			}
		}
	}
}

// SampleMod must equal a walk followed by a branchy fold of the next pool
// bit, sample by sample, and leave the pool in the same state: the sign
// bit is drawn after the walk whatever the magnitude.
func TestSampleModMatchesBranchyFold(t *testing.T) {
	const q = 7681
	for _, seed := range []uint64{1, 2, 3} {
		for _, lut := range []bool{true, false} {
			got, err := NewSampler(P1Matrix(), rng.NewXorshift128(seed), WithLUT(lut))
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewSampler(P1Matrix(), rng.NewXorshift128(seed), WithLUT(lut))
			if err != nil {
				t.Fatal(err)
			}
			zeroNeg := 0
			for i := 0; i < 100000; i++ {
				mag := ref.SampleMagnitude()
				sign := ref.Pool.Bit()
				want := branchyMod(mag, sign, q)
				if mag == 0 && sign == 1 {
					zeroNeg++
				}
				if g := got.SampleMod(q); g != want {
					t.Fatalf("seed %d lut %v sample %d: SampleMod = %d, want %d", seed, lut, i, g, want)
				}
				if got.Pool.Refills != ref.Pool.Refills || got.Pool.Remaining() != ref.Pool.Remaining() {
					t.Fatalf("seed %d lut %v sample %d: pool state diverged", seed, lut, i)
				}
			}
			if zeroNeg == 0 {
				t.Fatalf("seed %d lut %v: no zero magnitude with a set sign bit", seed, lut)
			}
		}
	}
}

// A zero magnitude with a set sign bit maps to 0, and the sign bit is still
// consumed.
func TestSampleModZeroConsumesSign(t *testing.T) {
	mat := P1Matrix()
	lut1, _, err := BuildLUT1(mat)
	if err != nil {
		t.Fatal(err)
	}
	idx := -1
	for i, e := range lut1 {
		if e == 0 {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatal("no LUT1 entry resolves to magnitude 0")
	}
	// Low 8 bits: the LUT1 probe; bit 8: the sign; bit 9: the next bit.
	src := &wordSource{word: uint32(idx) | 1<<8}
	s, err := NewSampler(mat, src)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.SampleMod(7681); got != 0 {
		t.Fatalf("SampleMod = %d, want 0", got)
	}
	if r := s.Pool.Remaining(); r != 31-9 {
		t.Fatalf("Remaining = %d after probe and sign, want %d", r, 31-9)
	}
	if b := s.Pool.Bit(); b != 0 {
		t.Fatal("the sign bit was not consumed")
	}
}

// wordSource returns the same word forever.
type wordSource struct{ word uint32 }

func (s *wordSource) Uint32() uint32 { return s.word }

func TestSamplePoly(t *testing.T) {
	mat := P1Matrix()
	s, err := NewSampler(mat, rng.NewXorshift128(9))
	if err != nil {
		t.Fatal(err)
	}
	p := make([]uint32, 256)
	s.SamplePoly(p, 7681)
	small := 0
	for _, c := range p {
		if c >= 7681 {
			t.Fatalf("coefficient %d out of range", c)
		}
		// All samples lie within the 12σ tail of 0 or q.
		if c < 55 || c > 7681-55 {
			small++
		}
	}
	if small != len(p) {
		t.Fatalf("%d/%d coefficients outside the sampler range", len(p)-small, len(p))
	}
}

func TestNewSamplerRejectsShortMatrixWithLUT(t *testing.T) {
	m := dyadicMatrix(t, [][]int{
		{1, 0, 0, 0, 0, 0, 0, 0},
		{0, 1, 1, 1, 1, 1, 1, 1},
	})
	if _, err := NewSampler(m, rng.NewXorshift128(1)); err == nil {
		t.Fatal("LUT sampler accepted an 8-column matrix")
	}
	if _, err := NewSampler(m, rng.NewXorshift128(1), WithLUT(false)); err != nil {
		t.Fatalf("scan sampler rejected an 8-column matrix: %v", err)
	}
}

func TestVariantString(t *testing.T) {
	if ScanBasic.String() != "basic" || ScanHamming.String() != "hamming" || ScanCLZ.String() != "clz" {
		t.Error("variant names changed")
	}
	if ScanVariant(9).String() == "" {
		t.Error("unknown variant should still render")
	}
}

func BenchmarkSampleLUT(b *testing.B) {
	s, err := NewSampler(P1Matrix(), rng.NewXorshift128(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SampleInt()
	}
}

func BenchmarkSampleScanCLZ(b *testing.B) {
	s, err := NewSampler(P1Matrix(), rng.NewXorshift128(1), WithLUT(false))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SampleInt()
	}
}

func BenchmarkSampleScanBasic(b *testing.B) {
	s, err := NewSampler(P1Matrix(), rng.NewXorshift128(1), WithLUT(false), WithVariant(ScanBasic))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SampleInt()
	}
}
