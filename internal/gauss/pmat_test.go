package gauss

import (
	"math"
	"math/big"
	"testing"
)

const (
	sigmaP1 = 11.31 / 2.5066282746310002 // 11.31/√(2π)
	sigmaP2 = 12.18 / 2.5066282746310002
)

// Paper anchor (§III-B2): σ = 11.31/√(2π) at statistical distance 2^-90
// requires 55 rows and 109 columns (5995 matrix bits).
func TestSizeReproducesPaperP1(t *testing.T) {
	rows, cols := Size(sigmaP1, 90)
	if rows != 55 || cols != 109 {
		t.Fatalf("Size(P1) = (%d,%d), want (55,109)", rows, cols)
	}
	if rows*cols != 5995 {
		t.Fatalf("matrix bits = %d, want the paper's 5995", rows*cols)
	}
}

func TestSizeP2(t *testing.T) {
	rows, cols := Size(sigmaP2, 90)
	if rows != 59 {
		t.Errorf("Size(P2) rows = %d, want ⌈12σ⌉ = 59", rows)
	}
	if cols != 109 {
		t.Errorf("Size(P2) cols = %d, want 109", cols)
	}
}

// Paper anchor (§III-B3): zero-word elision reduces storage from 218 to 180
// words for P1.
func TestStoredWordsReproducesPaperP1(t *testing.T) {
	m := P1Matrix()
	if got := m.TotalWords(); got != 218 {
		t.Fatalf("TotalWords = %d, want 218", got)
	}
	if got := m.StoredWords(); got != 180 {
		t.Fatalf("StoredWords = %d, want the paper's 180", got)
	}
}

// Paper anchor (Fig. 2): the walk terminates within 8 levels with
// probability 97.27% and within 13 levels with probability 99.87%.
func TestTerminationCDFReproducesFig2(t *testing.T) {
	cdf := P1Matrix().TerminationCDF()
	if math.Abs(cdf[7]-0.9727) > 0.0005 {
		t.Errorf("P(level ≤ 8) = %.4f, want 0.9727", cdf[7])
	}
	if math.Abs(cdf[12]-0.9987) > 0.0005 {
		t.Errorf("P(level ≤ 13) = %.4f, want 0.9987", cdf[12])
	}
	// Monotone non-decreasing, bounded by 1.
	for i := 1; i < len(cdf); i++ {
		if cdf[i] < cdf[i-1] {
			t.Fatalf("CDF decreases at %d", i)
		}
	}
	if cdf[len(cdf)-1] > 1.0000001 {
		t.Fatalf("CDF exceeds 1: %v", cdf[len(cdf)-1])
	}
}

func TestMatrixProbabilitiesSumToOne(t *testing.T) {
	for _, m := range []*Matrix{P1Matrix(), P2Matrix()} {
		sum := 0.0
		for x := 0; x < m.Rows; x++ {
			sum += m.TrueProb(x)
		}
		// The missing mass is the 12σ tail, ≈ 2^-104.
		if math.Abs(sum-1) > 1e-15 {
			t.Errorf("σ=%.4f: Σp = %v, want 1", m.Sigma, sum)
		}
	}
}

func TestStoredProbTruncatesDownward(t *testing.T) {
	m := P1Matrix()
	prec := uint(m.Cols) + 96
	one := big.NewFloat(1)
	for x := 0; x < m.Rows; x++ {
		// Reconstruct the stored expansion exactly and compare in big
		// arithmetic: truncation must only remove mass, and remove less
		// than one unit in the last stored place.
		stored := new(big.Float).SetPrec(prec)
		for j := 0; j < m.Cols; j++ {
			if m.Bit(x, j) == 1 {
				stored.Add(stored, new(big.Float).SetMantExp(one, -(j+1)))
			}
		}
		gap := new(big.Float).SetPrec(prec).Sub(m.probs[x], stored)
		if gap.Sign() < 0 {
			t.Errorf("row %d: stored expansion exceeds the true probability", x)
		}
		ulp := new(big.Float).SetMantExp(one, -m.Cols)
		if gap.Cmp(ulp) >= 0 {
			g, _ := gap.Float64()
			t.Errorf("row %d: truncation gap %v ≥ 2^-%d", x, g, m.Cols)
		}
	}
}

// truncationLoss returns 1 − Σ_x p̂_x, the probability mass the matrix
// rows lose to truncation; the Knuth-Yao walk resolves it to the paper's
// "return 0" fallback.
func truncationLoss(m *Matrix) float64 {
	sum := new(big.Float).SetPrec(uint(m.Cols) + 64)
	for row := 0; row < m.Rows; row++ {
		for j := 0; j < m.Cols; j++ {
			if m.Bit(row, j) == 1 {
				sum.Add(sum, new(big.Float).SetMantExp(big.NewFloat(1), -(j+1)))
			}
		}
	}
	loss, _ := new(big.Float).Sub(big.NewFloat(1), sum).Float64()
	return loss
}

func TestTruncationLossTiny(t *testing.T) {
	m := P1Matrix()
	loss := truncationLoss(m)
	if loss < 0 {
		t.Fatalf("negative truncation loss %v", loss)
	}
	// Loss ≤ rows·2^-cols + tail mass; must be far below the 2^-90 target.
	if loss > math.Ldexp(1, -95) {
		t.Fatalf("truncation loss %v too large", loss)
	}
}

func TestMatrixGaussianShape(t *testing.T) {
	m := P1Matrix()
	// Probabilities strictly decrease with |x| (true for a centered
	// Gaussian until float64 rounding at the far tail).
	for x := 1; x < 40; x++ {
		if m.TrueProb(x) >= m.TrueProb(x-1) && x > 1 {
			t.Errorf("p(%d) ≥ p(%d)", x, x-1)
		}
	}
	// σ check by direct second moment of the magnitude distribution:
	// E[X²] = Σ x²·p(x) (signed symmetric) should be ≈ σ².
	var m2 float64
	for x := 1; x < m.Rows; x++ {
		m2 += float64(x) * float64(x) * m.TrueProb(x)
	}
	if math.Abs(m2-m.Sigma*m.Sigma) > 0.02*m.Sigma*m.Sigma {
		t.Errorf("E[X²] = %v, want σ² = %v", m2, m.Sigma*m.Sigma)
	}
}

func TestHammingWeightsMatchBits(t *testing.T) {
	m := P1Matrix()
	for j := 0; j < m.Cols; j++ {
		n := 0
		for r := 0; r < m.Rows; r++ {
			n += m.Bit(r, j)
		}
		if n != m.HammingWeight(j) {
			t.Fatalf("col %d: HW %d, bits %d", j, m.HammingWeight(j), n)
		}
	}
}

// The paper's observation behind the elision: the Hamming weight between
// consecutive columns increases by at most ... in practice slowly; verify
// the qualitative structure that justifies Fig. 1 — deep-tail rows have no
// bits in early columns.
func TestBottomLeftCornerIsZero(t *testing.T) {
	m := P1Matrix()
	for j := 0; j < 30; j++ {
		for r := 40; r < m.Rows; r++ {
			if m.Bit(r, j) != 0 {
				t.Fatalf("unexpected bit at row %d col %d", r, j)
			}
		}
	}
	// And the elision actually drops the deep-tail word of early columns.
	if m.columns[10].Elided == 0 {
		t.Error("column 10 should have its deep-tail word elided")
	}
	if m.columns[m.Cols-1].Elided != 0 {
		t.Error("the last column should be fully stored")
	}
}

func TestScanWordLayout(t *testing.T) {
	m := P1Matrix()
	// Reconstruct every bit from the packed scan words and compare.
	wpc := m.WordsPerColumn()
	for j := 0; j < m.Cols; j++ {
		for k := 0; k < wpc; k++ {
			w, base := m.scanWord(j, k)
			for b := 31; b >= 0; b-- {
				r := base - (31 - b)
				bit := int(w>>uint(b)) & 1
				switch {
				case r >= m.Rows || r < 0:
					if bit != 0 {
						t.Fatalf("structural zero violated at col %d word %d bit %d", j, k, b)
					}
				case bit != m.Bit(r, j):
					t.Fatalf("col %d row %d: packed %d, matrix %d", j, r, bit, m.Bit(r, j))
				}
			}
		}
	}
}

func TestWalkColumnConservation(t *testing.T) {
	m := P1Matrix()
	// Exhausting a column without terminal must decrement d by exactly HW.
	for j := 0; j < m.Cols; j++ {
		hw := uint32(m.HammingWeight(j))
		row, dOut := m.walkColumn(j, hw+5)
		if row != -1 || dOut != 5 {
			t.Fatalf("col %d: walk(hw+5) = (%d, %d), want (-1, 5)", j, row, dOut)
		}
		// d < HW must terminate at the (d+1)-th one bit in scan order.
		if hw > 0 {
			row, _ = m.walkColumn(j, 0)
			if row < 0 {
				t.Fatalf("col %d: walk(0) found no terminal despite HW=%d", j, hw)
			}
		}
	}
}

func TestNewMatrixRejectsBadArgs(t *testing.T) {
	if _, err := NewMatrix(0, 10, 20); err == nil {
		t.Error("sigma=0 accepted")
	}
	if _, err := NewMatrix(math.NaN(), 10, 20); err == nil {
		t.Error("sigma=NaN accepted")
	}
	if _, err := NewMatrix(math.Inf(1), 10, 20); err == nil {
		t.Error("sigma=+Inf accepted")
	}
	if _, err := NewMatrix(3.0, 1, 20); err == nil {
		t.Error("rows=1 accepted")
	}
	if _, err := NewMatrix(3.0, 10, 4); err == nil {
		t.Error("cols=4 accepted")
	}
	if _, err := NewMatrixFromS(0, 100, 10, 20); err == nil {
		t.Error("s=0 accepted")
	}
	if _, err := NewMatrixFromS(1131, -1, 10, 20); err == nil {
		t.Error("negative denominator accepted")
	}
}

func TestNewMatrixFromSMatchesNewMatrix(t *testing.T) {
	// The float64-σ and exact-s constructions must agree on every stored bit
	// unless a bit falls exactly on the float64 rounding boundary — compare
	// probabilities instead of bits, at float64 resolution.
	a, err := NewMatrixFromS(1131, 100, 55, 109)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMatrix(sigmaP1, 55, 109)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < 55; x++ {
		if math.Abs(a.TrueProb(x)-b.TrueProb(x)) > 1e-12 {
			t.Fatalf("row %d: FromS %v vs float64-σ %v", x, a.TrueProb(x), b.TrueProb(x))
		}
	}
}

func TestBitPanicsOutOfRange(t *testing.T) {
	m := P1Matrix()
	for _, c := range [][2]int{{-1, 0}, {0, -1}, {55, 0}, {0, 109}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Bit(%d,%d) did not panic", c[0], c[1])
				}
			}()
			m.Bit(c[0], c[1])
		}()
	}
}
