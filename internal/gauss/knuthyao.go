package gauss

import (
	"fmt"
	"math/bits"

	"ringlwe/internal/cacheline"
	"ringlwe/internal/rng"
)

// ScanVariant selects how the Knuth-Yao random walk traverses a probability
// matrix column. All variants are distribution-identical; they differ only
// in the work performed, which the paper's optimizations progressively
// reduce (§III-B).
type ScanVariant int

const (
	// ScanBasic visits every bit of every column (Algorithm 1 as written:
	// "each iteration of the inner loop requires at least 8 cycles").
	ScanBasic ScanVariant = iota
	// ScanHamming is the prior-art strategy of [6]: a column whose Hamming
	// weight is not larger than the current distance cannot contain the
	// terminal node, so it is consumed in one subtraction.
	ScanHamming
	// ScanCLZ is the paper's contribution: a count-leading-zeros instruction
	// jumps directly from one one-bit to the next, so zero bits cost nothing.
	ScanCLZ
)

// String names the variant for harness output.
func (v ScanVariant) String() string {
	switch v {
	case ScanBasic:
		return "basic"
	case ScanHamming:
		return "hamming"
	case ScanCLZ:
		return "clz"
	default:
		return fmt.Sprintf("ScanVariant(%d)", int(v))
	}
}

// Sampler draws discrete Gaussian samples with the Knuth-Yao algorithm over
// a probability Matrix, optionally accelerated by the paper's two lookup
// tables (Algorithm 2). It draws its randomness from a BitPool the way the
// microcontroller implementation does: LUT probes as whole 8- and 5-bit
// fields, residual walk steps and the sign one bit at a time. Not safe for
// concurrent use. Every sample writes its counters, so the sampler sits
// between cache-line pads (see package cacheline).
type Sampler struct {
	_       cacheline.Pad
	Mat     *Matrix
	Pool    *rng.BitPool
	Variant ScanVariant

	// lut1, if non-nil, resolves DDG levels 1-8 from one byte of randomness;
	// lut2 resolves levels 9-13 for walks that survive LUT1. Failure entries
	// carry the walk's distance with the most significant bit set.
	lut1 []uint8
	lut2 []uint8
	// lut2DRange is the number of distinct distances LUT2 is indexed by
	// (the paper's 7, making LUT2 224 bytes).
	lut2DRange int

	// Statistics for the harness: total samples and where each was resolved.
	Samples, LUT1Hits, LUT2Hits, ScanResolved uint64

	_ cacheline.Pad
}

// Option configures a Sampler.
type Option func(*samplerConfig)

type samplerConfig struct {
	variant  ScanVariant
	useLUT   bool
	lut1     []uint8
	lut2     []uint8
	maxFailD int
}

// WithVariant selects the column-scan strategy (default ScanCLZ).
func WithVariant(v ScanVariant) Option {
	return func(c *samplerConfig) { c.variant = v }
}

// WithLUT enables or disables the Algorithm 2 lookup tables (default
// enabled).
func WithLUT(enabled bool) Option {
	return func(c *samplerConfig) { c.useLUT = enabled }
}

// WithPrebuiltLUTs supplies lookup tables already produced by BuildLUT1 and
// BuildLUT2 for the same matrix, so constructing many samplers (one per
// randomness source) does not repeat the table generation.
func WithPrebuiltLUTs(lut1, lut2 []uint8, maxFailD int) Option {
	return func(c *samplerConfig) {
		c.useLUT = true
		c.lut1, c.lut2, c.maxFailD = lut1, lut2, maxFailD
	}
}

// NewSampler builds a sampler over mat drawing randomness from src.
// By default it uses the paper's full configuration: both lookup tables and
// clz scanning for the residual walks.
func NewSampler(mat *Matrix, src rng.Source, opts ...Option) (*Sampler, error) {
	cfg := samplerConfig{variant: ScanCLZ, useLUT: true}
	for _, o := range opts {
		o(&cfg)
	}
	s := &Sampler{
		Mat:     mat,
		Pool:    rng.NewBitPool(src),
		Variant: cfg.variant,
	}
	if cfg.useLUT {
		if mat.Cols < 13 {
			return nil, fmt.Errorf("gauss: LUT sampler needs ≥ 13 columns, matrix has %d", mat.Cols)
		}
		if cfg.lut1 != nil {
			s.lut1, s.lut2, s.lut2DRange = cfg.lut1, cfg.lut2, cfg.maxFailD+1
			return s, nil
		}
		lut1, maxD1, err := BuildLUT1(mat)
		if err != nil {
			return nil, err
		}
		lut2, err := BuildLUT2(mat, maxD1)
		if err != nil {
			return nil, err
		}
		s.lut1, s.lut2, s.lut2DRange = lut1, lut2, maxD1+1
	}
	return s, nil
}

// BuildLUT1 constructs the paper's first lookup table: entry i is the result
// of running Algorithm 1 through DDG levels 1-8 with the eight bits of i
// (least significant bit = level 1). Successful walks store the sampled
// magnitude; unsuccessful ones store 0x80 | d where d is the walk distance
// after level 8. maxFailD is the largest such d (6 for the paper's σ).
func BuildLUT1(m *Matrix) (lut []uint8, maxFailD int, err error) {
	lut = make([]uint8, 256)
	for idx := 0; idx < 256; idx++ {
		d := uint32(0)
		term := -1
		for col := 0; col < 8 && term < 0; col++ {
			d = 2*d + uint32((idx>>col)&1)
			term, d = m.walkColumn(col, d)
		}
		switch {
		case term >= 0:
			if term > 0x7F {
				return nil, 0, fmt.Errorf("gauss: magnitude %d does not fit a LUT byte", term)
			}
			lut[idx] = uint8(term)
		case d > 0x7F:
			return nil, 0, fmt.Errorf("gauss: LUT1 failure distance %d does not fit a byte", d)
		default:
			lut[idx] = 0x80 | uint8(d)
			if int(d) > maxFailD {
				maxFailD = int(d)
			}
		}
	}
	return lut, maxFailD, nil
}

// BuildLUT2 constructs the second lookup table covering DDG levels 9-13.
// The index is d*32 + r where d is the level-8 distance of a failed LUT1
// lookup (d ≤ maxFailD) and r is a 5-bit random value (LSB = level 9). With
// the paper's σ, maxFailD = 6 and the table has 7·32 = 224 entries.
func BuildLUT2(m *Matrix, maxFailD int) ([]uint8, error) {
	lut := make([]uint8, (maxFailD+1)*32)
	for d0 := 0; d0 <= maxFailD; d0++ {
		for r := 0; r < 32; r++ {
			d := uint32(d0)
			term := -1
			for col := 8; col < 13 && term < 0; col++ {
				d = 2*d + uint32((r>>(col-8))&1)
				term, d = m.walkColumn(col, d)
			}
			i := d0*32 + r
			switch {
			case term >= 0:
				if term > 0x7F {
					return nil, fmt.Errorf("gauss: magnitude %d does not fit a LUT byte", term)
				}
				lut[i] = uint8(term)
			case d > 0x7F:
				return nil, fmt.Errorf("gauss: LUT2 failure distance %d does not fit a byte", d)
			default:
				lut[i] = 0x80 | uint8(d)
			}
		}
	}
	return lut, nil
}

// LUTSizes reports the byte sizes of the two lookup tables (256 and 224 in
// the paper) for the memory accounting; both are zero when LUTs are off.
func (s *Sampler) LUTSizes() (lut1, lut2 int) { return len(s.lut1), len(s.lut2) }

// SampleMagnitude runs the walk and returns |x|. It consumes level bits but
// not the sign bit.
func (s *Sampler) SampleMagnitude() uint32 {
	s.Samples++
	if s.lut1 != nil {
		idx := s.Pool.Bits(8)
		e := s.lut1[idx]
		if e&0x80 == 0 {
			s.LUT1Hits++
			return uint32(e)
		}
		d := uint32(e & 0x7F)
		if int(d) < s.lut2DRange {
			r := s.Pool.Bits(5)
			e2 := s.lut2[d*32+r]
			if e2&0x80 == 0 {
				s.LUT2Hits++
				return uint32(e2)
			}
			s.ScanResolved++
			return s.scanFrom(13, uint32(e2&0x7F))
		}
		s.ScanResolved++
		return s.scanFrom(8, d)
	}
	s.ScanResolved++
	return s.scanFrom(0, 0)
}

// SampleInt returns one signed discrete Gaussian sample.
func (s *Sampler) SampleInt() int32 {
	mag := int32(s.SampleMagnitude())
	if s.Pool.Bit() == 1 {
		return -mag
	}
	return mag
}

// SampleMod returns one sample reduced into [0, q): magnitude row becomes
// q - row when the sign bit is set (Algorithm 1 line 8). The sign bit is
// drawn after the walk, also for magnitude 0, and folded in by CondNeg.
func (s *Sampler) SampleMod(q uint32) uint32 {
	mag := s.SampleMagnitude()
	return CondNeg(mag, s.Pool.Bit(), q)
}

// CondNeg maps a magnitude and a sign bit to the mod-q representative:
// q−mag when sign is 1 and mag is not 0, mag otherwise. It has no branch,
// so the random sign bit costs no mispredicted jump (and leaks nothing
// through one). Every sampler backend folds its sign with it.
func CondNeg(mag, sign, q uint32) uint32 {
	nz := (mag | -mag) >> 31 // 1 iff mag ≠ 0
	m := -(sign & nz)        // all-ones iff negating
	return mag ^ ((mag ^ (q - mag)) & m)
}

// SamplePoly fills p with independent samples reduced mod q — one error
// polynomial of the encryption scheme (which needs 3n of these per
// encryption).
func (s *Sampler) SamplePoly(p []uint32, q uint32) {
	for i := range p {
		p[i] = s.SampleMod(q)
	}
}

// scanFrom resumes the random walk at DDG level col+1 with distance d and
// runs Algorithm 1 to completion using the configured scan variant. If the
// walk exhausts all columns — probability below the matrix's truncation
// loss, i.e. ≈ 2^-100 — it returns 0, like Algorithm 1 line 11.
func (s *Sampler) scanFrom(col int, d uint32) uint32 {
	m := s.Mat
	for ; col < m.Cols; col++ {
		d = 2*d + s.Pool.Bit()
		switch s.Variant {
		case ScanHamming:
			hw := uint32(m.hw[col])
			if d >= hw {
				d -= hw
				continue
			}
		case ScanBasic:
			if row, hit := scanColumnBasic(m, col, d); hit {
				return row
			} else {
				d -= uint32(m.hw[col])
				continue
			}
		}
		// ScanCLZ, and the ScanHamming fall-through when the terminal is
		// known to be inside this column.
		if row, dOut, hit := scanColumnCLZ(m, col, d); hit {
			return row
		} else {
			d = dOut
		}
	}
	return 0
}

// ResumeWalk continues Algorithm 1 at DDG level col+1 with distance d,
// drawing one level bit per column from nextBit and scanning columns with
// the paper's clz strategy. It returns the terminal row, or 0 when the walk
// exhausts every column (the sub-2^-100 truncation fallback, Algorithm 1
// line 11). This is the residual-walk entry point for samplers that manage
// their own randomness front end (the batched engine resolves its rare
// LUT failures here); Sampler.scanFrom is the same walk bound to the
// scalar bit pool.
func (m *Matrix) ResumeWalk(col int, d uint32, nextBit func() uint32) uint32 {
	for ; col < m.Cols; col++ {
		d = 2*d + nextBit()
		row, dOut, hit := scanColumnCLZ(m, col, d)
		if hit {
			return row
		}
		d = dOut
	}
	return 0
}

// scanColumnBasic visits every row of the column, including zeros — the
// unoptimized inner loop the paper starts from.
func scanColumnBasic(m *Matrix, col int, d uint32) (row uint32, hit bool) {
	wpc := m.WordsPerColumn()
	for k := 0; k < wpc; k++ {
		w, base := m.scanWord(col, k)
		for b := 31; b >= 0; b-- {
			if (w>>uint(b))&1 == 1 {
				if d == 0 {
					return uint32(base - (31 - b)), true
				}
				d--
			}
		}
	}
	return 0, false
}

// scanColumnCLZ implements the paper's §III-B4: leading-zero counts jump the
// scan directly between one bits, so zero bits — the overwhelming majority —
// are never visited, and elided words are skipped wholesale.
func scanColumnCLZ(m *Matrix, col int, d uint32) (row uint32, dOut uint32, hit bool) {
	wpc := m.WordsPerColumn()
	c := &m.columns[col]
	for k := c.Elided; k < wpc; k++ {
		w := c.Words[k-c.Elided]
		base := 32*(wpc-1-k) + 31
		for w != 0 {
			z := bits.LeadingZeros32(w)
			if d == 0 {
				return uint32(base - z), 0, true
			}
			d--
			w <<= uint(z + 1)
			base -= z + 1
		}
	}
	return 0, d, false
}
