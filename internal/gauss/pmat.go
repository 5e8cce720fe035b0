package gauss

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"sync"
)

// Matrix is the Knuth-Yao probability matrix P_mat of the paper (§II-B,
// §III-B): row x holds the binary expansion of the probability of sampling
// magnitude x from the discrete Gaussian, truncated to Cols bits. Column j
// corresponds to level j+1 of the DDG tree.
//
// Storage follows the paper's optimizations: each column is packed into
// 32-bit words in scan order (row Rows-1 is visited first), and leading
// all-zero words — the bottom-left corner of the matrix, where deep-tail
// rows have no significant bits yet — are elided (§III-B3). Per-column
// Hamming weights are kept for the prior-art skip strategy of [6] that the
// paper compares against.
type Matrix struct {
	// Sigma is the standard deviation (informational; construction uses
	// exact big-float arithmetic internally).
	Sigma float64
	// Rows is the number of stored magnitudes (x = 0 .. Rows-1); Cols is the
	// stored precision in bits.
	Rows, Cols int

	// probs[x] is the exact (pre-truncation) probability of magnitude x:
	// p_0 = ρ(0)/S and p_x = 2ρ(x)/S for x ≥ 1, at full working precision.
	probs []*big.Float

	// rowBits[x] holds the truncated expansion of probs[x], bit j of word
	// j/64 (little-endian by column index).
	rowBits [][]uint64

	// columns[j] is the packed scan-order storage of column j.
	columns []Column

	// hw[j] is the Hamming weight of column j.
	hw []int
}

// Column is one packed probability-matrix column. Scan order starts at the
// most significant bit of the first stored word; Elided leading words (each
// covering 32 rows of zeros at the start of the scan) are not stored.
type Column struct {
	Elided int
	Words  []uint32
}

// WordsPerColumn returns how many 32-bit words one full (unelided) column
// occupies, e.g. 2 for the paper's 55-row matrix.
func (m *Matrix) WordsPerColumn() int { return (m.Rows + 31) / 32 }

// TotalWords returns the unelided storage footprint in words (the paper's
// 218 for P1).
func (m *Matrix) TotalWords() int { return m.WordsPerColumn() * m.Cols }

// StoredWords returns the storage footprint after zero-word elision (the
// paper's 180 for P1).
func (m *Matrix) StoredWords() int {
	n := 0
	for _, c := range m.columns {
		n += len(c.Words)
	}
	return n
}

// Bit returns matrix element (row, col) ∈ {0, 1}.
func (m *Matrix) Bit(row, col int) int {
	if row < 0 || row >= m.Rows || col < 0 || col >= m.Cols {
		panic("gauss: Bit index out of range")
	}
	return int(m.rowBits[row][col/64]>>(col%64)) & 1
}

// HammingWeight returns the number of one bits in column col.
func (m *Matrix) HammingWeight(col int) int { return m.hw[col] }

// TrueProb returns the exact probability of magnitude row as a float64.
func (m *Matrix) TrueProb(row int) float64 {
	f, _ := m.probs[row].Float64()
	return f
}

// TerminationCDF returns, for every level x in 1..Cols, the probability that
// the Knuth-Yao walk terminates within the first x levels: the paper's
// Figure 2 series. Element [x-1] is P(level ≤ x) = Σ_{j<x} HW(j)·2^(-j-1).
func (m *Matrix) TerminationCDF() []float64 {
	out := make([]float64, m.Cols)
	acc := 0.0
	for j := 0; j < m.Cols; j++ {
		acc += float64(m.hw[j]) * math.Ldexp(1, -(j+1))
		out[j] = acc
	}
	return out
}

// walkColumn advances the Knuth-Yao distance d through column col in scan
// order (row Rows-1 first). It returns the terminal row if the walk hits a
// terminal node in this column (distance would drop below zero), or row = -1
// and the updated distance otherwise. This is the reference (unoptimized)
// walk used for LUT construction and as the oracle for the fast scanners.
func (m *Matrix) walkColumn(col int, d uint32) (row int, dOut uint32) {
	for r := m.Rows - 1; r >= 0; r-- {
		if m.Bit(r, col) == 1 {
			if d == 0 {
				return r, 0
			}
			d--
		}
	}
	return -1, d
}

// Size returns the matrix dimensions used for a target statistical distance
// of 2^-lambda at standard deviation sigma, following the sizing the paper
// inherits from Roy et al. [6] and Dwarakanath-Galbraith [14]: the tail is
// cut at 12σ (rows = ⌈12σ⌉, giving tail mass ≈ 2^-104 at the paper's σ) and
// the expansions carry lambda + ⌈log₂ rows⌉ + 13 bits, where the log term
// absorbs the row-sum amplification of per-row truncation error and the 13
// guard bits match the paper's concrete choice. For σ = 11.31/√(2π) and
// λ = 90 this reproduces the paper's 55 rows × 109 columns (§III-B2).
func Size(sigma float64, lambda int) (rows, cols int) {
	rows = int(math.Ceil(12 * sigma))
	cols = lambda + bits.Len(uint(rows)) + 13
	return rows, cols
}

// NewMatrix builds the probability matrix for the discrete Gaussian with the
// given standard deviation (taken exactly as the float64 value). rows and
// cols are typically obtained from Size.
func NewMatrix(sigma float64, rows, cols int) (*Matrix, error) {
	if sigma <= 0 || math.IsNaN(sigma) || math.IsInf(sigma, 0) {
		return nil, fmt.Errorf("gauss: invalid sigma %v", sigma)
	}
	prec := uint(cols) + 96
	s := new(big.Float).SetPrec(prec).SetFloat64(sigma)
	twoSigmaSq := new(big.Float).SetPrec(prec).Mul(s, s)
	twoSigmaSq.Mul(twoSigmaSq, big.NewFloat(2))
	return buildMatrix(sigma, twoSigmaSq, rows, cols)
}

// NewMatrixFromS builds the matrix for σ = (sNum/sDen)/√(2π), the
// parameterization the paper uses (s = 11.31 for P1, s = 12.18 for P2).
// The identity 2σ² = s²/π lets the construction stay exact: s is taken as
// the exact rational sNum/sDen and π is computed to working precision.
func NewMatrixFromS(sNum, sDen int64, rows, cols int) (*Matrix, error) {
	if sNum <= 0 || sDen <= 0 {
		return nil, fmt.Errorf("gauss: invalid s = %d/%d", sNum, sDen)
	}
	prec := uint(cols) + 96
	s := new(big.Float).SetPrec(prec).Quo(
		new(big.Float).SetInt64(sNum), new(big.Float).SetInt64(sDen))
	twoSigmaSq := new(big.Float).SetPrec(prec).Mul(s, s)
	twoSigmaSq.Quo(twoSigmaSq, bigPi(prec))
	sigma64, _ := s.Float64()
	return buildMatrix(sigma64/math.Sqrt(2*math.Pi), twoSigmaSq, rows, cols)
}

func buildMatrix(sigma float64, twoSigmaSq *big.Float, rows, cols int) (*Matrix, error) {
	if rows < 2 {
		return nil, fmt.Errorf("gauss: need at least 2 rows, got %d", rows)
	}
	if cols < 8 {
		return nil, fmt.Errorf("gauss: need at least 8 columns, got %d", cols)
	}
	prec := uint(cols) + 96

	// ρ(x) = exp(-x²/2σ²). Normalizer S = ρ(0) + 2·Σ_{x≥1} ρ(x), summed until
	// terms are negligible at working precision (beyond x where
	// x² > 2σ²·(prec+40)·ln 2).
	ts, _ := twoSigmaSq.Float64()
	cutoff := int(math.Ceil(math.Sqrt(ts*float64(prec+40)*math.Ln2))) + 2
	if cutoff < rows {
		cutoff = rows
	}
	rho := make([]*big.Float, cutoff+1)
	for x := 0; x <= cutoff; x++ {
		z := new(big.Float).SetPrec(prec).SetInt64(int64(x) * int64(x))
		z.Quo(z, twoSigmaSq)
		z.Neg(z)
		rho[x] = bigExp(z, prec)
	}
	norm := new(big.Float).SetPrec(prec).Set(rho[0])
	for x := 1; x <= cutoff; x++ {
		t := new(big.Float).SetPrec(prec).Mul(rho[x], big.NewFloat(2))
		norm.Add(norm, t)
	}

	m := &Matrix{
		Sigma:   sigma,
		Rows:    rows,
		Cols:    cols,
		probs:   make([]*big.Float, rows),
		rowBits: make([][]uint64, rows),
		hw:      make([]int, cols),
	}
	two := big.NewFloat(2)
	one := big.NewFloat(1)
	for x := 0; x < rows; x++ {
		p := new(big.Float).SetPrec(prec).Set(rho[x])
		if x > 0 {
			p.Mul(p, two)
		}
		p.Quo(p, norm)
		m.probs[x] = p

		// Extract cols bits of the binary expansion by repeated doubling.
		words := make([]uint64, (cols+63)/64)
		frac := new(big.Float).SetPrec(prec).Set(p)
		for j := 0; j < cols; j++ {
			frac.Mul(frac, two)
			if frac.Cmp(one) >= 0 {
				words[j/64] |= 1 << (j % 64)
				frac.Sub(frac, one)
				m.hw[j]++
			}
		}
		m.rowBits[x] = words
	}

	m.packColumns()
	return m, nil
}

// packColumns builds the scan-order packed column storage with zero-word
// elision. Scan-word k (k = wordsPerCol-1 .. 0) covers rows 32k+31 .. 32k,
// with row 32k+31 at bit 31 so a clz on the word yields the next row to
// visit; rows ≥ Rows in the top word are structural zeros.
//
// Elision follows the paper's Fig. 1: the dropped words form the contiguous
// bottom-left corner of the matrix. For each scan-word position (deepest
// rows first) we find the breakpoint column before which that word is zero
// for every column, and drop it exactly there, keeping the per-column
// addressing regular (one breakpoint per word position, at least one stored
// word per column). Isolated zero words past a breakpoint stay stored, as
// in the paper — this reproduces its 218 → 180 word count for P1.
func (m *Matrix) packColumns() {
	wpc := m.WordsPerColumn()
	all := make([][]uint32, m.Cols)
	for j := 0; j < m.Cols; j++ {
		words := make([]uint32, 0, wpc)
		for k := wpc - 1; k >= 0; k-- {
			var w uint32
			for b := 31; b >= 0; b-- {
				r := 32*k + b
				if r < m.Rows && m.Bit(r, j) == 1 {
					w |= 1 << uint(b)
				}
			}
			words = append(words, w)
		}
		all[j] = words
	}

	// breakpoint[k]: first column whose scan word k is nonzero. The last
	// scan word position is never elided so every column keeps ≥ 1 word.
	breakpoint := make([]int, wpc)
	for k := 0; k < wpc-1; k++ {
		breakpoint[k] = m.Cols
		for j := 0; j < m.Cols; j++ {
			if all[j][k] != 0 {
				breakpoint[k] = j
				break
			}
		}
	}
	// Clamp so the elided region is a prefix in scan order (deeper-row words
	// can never be elided where shallower ones are stored).
	for k := 1; k < wpc-1; k++ {
		if breakpoint[k] > breakpoint[k-1] {
			breakpoint[k] = breakpoint[k-1]
		}
	}

	m.columns = make([]Column, m.Cols)
	for j := 0; j < m.Cols; j++ {
		elided := 0
		for elided < wpc-1 && j < breakpoint[elided] {
			elided++
		}
		m.columns[j] = Column{Elided: elided, Words: all[j][elided:]}
	}
}

// ColumnWords exposes the packed storage of column j for external engines
// (the Cortex-M4F cycle model walks the same words the real sampler does):
// elided is the number of leading all-zero scan words that are not stored,
// and words are the stored scan words, first-visited first, with the
// highest-numbered row of each 32-row block at bit 31.
func (m *Matrix) ColumnWords(j int) (elided int, words []uint32) {
	c := &m.columns[j]
	return c.Elided, c.Words
}

// scanWord returns scan word k (0 = first visited) of column j, honoring
// elision, along with the base row index of its bit 31.
func (m *Matrix) scanWord(j, k int) (w uint32, baseRow int) {
	wpc := m.WordsPerColumn()
	baseRow = 32*(wpc-1-k) + 31
	c := &m.columns[j]
	if k < c.Elided {
		return 0, baseRow
	}
	return c.Words[k-c.Elided], baseRow
}

// Standard matrices for the two paper parameter sets, built lazily: P1 uses
// s = 11.31 (σ ≈ 4.5116) and P2 uses s = 12.18 (σ ≈ 4.8586), both at the
// paper's 2^-90 statistical distance sizing.
var (
	p1Once, p2Once sync.Once
	p1Mat, p2Mat   *Matrix
)

// P1Matrix returns the shared 55×109 matrix for σ = 11.31/√(2π).
func P1Matrix() *Matrix {
	p1Once.Do(func() {
		rows, cols := Size(11.31/math.Sqrt(2*math.Pi), 90)
		m, err := NewMatrixFromS(1131, 100, rows, cols)
		if err != nil {
			panic(err)
		}
		p1Mat = m
	})
	return p1Mat
}

// P2Matrix returns the shared matrix for σ = 12.18/√(2π).
func P2Matrix() *Matrix {
	p2Once.Do(func() {
		rows, cols := Size(12.18/math.Sqrt(2*math.Pi), 90)
		m, err := NewMatrixFromS(1218, 100, rows, cols)
		if err != nil {
			panic(err)
		}
		p2Mat = m
	})
	return p2Mat
}
