// Package rns implements the residue-number-system (RNS) polynomial tier:
// a composite modulus q = q₁·q₂·…·q_k split into word-sized NTT-friendly
// prime residues, so every ring operation over the big q runs as k
// independent single-modulus operations on the existing engines — one per
// residue channel, schedulable in parallel — and the only big-integer
// arithmetic left is the CRT reconstruction at decode time, done in a
// 128-bit accumulator. Every parameter set runs over a Basis: the paper's
// word-sized sets (P1/P2/A1) are one-channel bases, and k > 1 reaches
// ≥60-bit q and aggregation budgets in the thousands.
package rns

import (
	"fmt"
	"math/big"
	"sync"

	"ringlwe/internal/ntt"
	"ringlwe/internal/zq"
)

// MaxK caps the number of residue channels: with word-sized moduli, k = 4
// keeps every CRT intermediate inside the Uint128 accumulator (see the
// bound note on Uint128) and already reaches ~116-bit composite moduli.
const MaxK = 4

// MaxQBits caps the composite modulus so 4·c (the decode threshold
// comparison) and the k-term CRT sum both stay below 2^128 with margin.
const MaxQBits = 120

// Basis is a fixed RNS decomposition: the residue moduli with their
// per-channel NTT tables and the cached CRT constants reconstruction and
// encoding need. Immutable after construction and safe for concurrent use;
// engine resolution results are cached per backend name.
type Basis struct {
	// N is the ring degree shared by every channel.
	N int
	// K is the number of residue channels.
	K int
	// Moduli are the channel primes q₁…q_k, each ≡ 1 (mod 2N).
	Moduli []uint32
	// Mods are the channels' Barrett precomputations.
	Mods []*zq.Modulus
	// Tables are the channels' twiddle tables.
	Tables []*ntt.Tables

	// QBig is the composite modulus q = Πqᵢ (shared; callers must not
	// mutate it — big oracle paths copy before arithmetic).
	QBig *big.Int
	// QBits is QBig.BitLen().
	QBits int

	// q128 is q and q3 is 3q, in the accumulator width, for the
	// branchless threshold decode 4c ∈ (q, 3q).
	q128, q3 Uint128
	// qHat[i] = q/qᵢ, the CRT basis element for channel i.
	qHat []Uint128
	// tInv[i] = (q/qᵢ)⁻¹ mod qᵢ, the CRT interpolation inverse.
	tInv []uint32
	// halfQRes[i] = ⌊q/2⌋ mod qᵢ, the per-channel residue of the
	// message-encoding offset.
	halfQRes []uint32
	// qHatRes[i][j] = (q/qᵢ) mod qⱼ, the basis-conversion constants
	// (channel i's CRT element seen from channel j); qHatRes[i][i] is
	// the value tInv[i] inverts.
	qHatRes [][]uint32

	engMu    sync.Mutex
	engCache map[string][]ntt.Engine
}

// NewBasis builds the RNS decomposition over ring degree n and the given
// distinct primes. Each modulus must satisfy the single-channel NTT
// preconditions (odd prime < 2³¹ with q ≡ 1 mod 2n); the composite must
// fit MaxQBits.
func NewBasis(n int, moduli []uint32) (*Basis, error) {
	k := len(moduli)
	if k < 1 || k > MaxK {
		return nil, fmt.Errorf("rns: basis needs 1–%d moduli, got %d", MaxK, k)
	}
	seen := make(map[uint32]bool, k)
	for _, q := range moduli {
		if seen[q] {
			return nil, fmt.Errorf("rns: duplicate modulus %d", q)
		}
		seen[q] = true
	}
	b := &Basis{
		N:        n,
		K:        k,
		Moduli:   append([]uint32(nil), moduli...),
		Mods:     make([]*zq.Modulus, k),
		Tables:   make([]*ntt.Tables, k),
		qHat:     make([]Uint128, k),
		tInv:     make([]uint32, k),
		halfQRes: make([]uint32, k),
		qHatRes:  make([][]uint32, k),
		engCache: map[string][]ntt.Engine{},
	}
	q := big.NewInt(1)
	for i, qi := range moduli {
		m, err := zq.NewModulus(qi)
		if err != nil {
			return nil, fmt.Errorf("rns: channel %d: %w", i, err)
		}
		t, err := ntt.NewTables(m, n)
		if err != nil {
			return nil, fmt.Errorf("rns: channel %d (q=%d): %w", i, qi, err)
		}
		b.Mods[i], b.Tables[i] = m, t
		q.Mul(q, new(big.Int).SetUint64(uint64(qi)))
	}
	b.QBig, b.QBits = q, q.BitLen()
	if b.QBits > MaxQBits {
		return nil, fmt.Errorf("rns: composite modulus has %d bits, max %d", b.QBits, MaxQBits)
	}
	b.q128 = u128FromBig(q)
	b.q3 = u128FromBig(new(big.Int).Mul(q, big.NewInt(3)))
	halfQ := new(big.Int).Rsh(q, 1)
	for i, qi := range moduli {
		qhat := new(big.Int).Div(q, new(big.Int).SetUint64(uint64(qi)))
		b.qHat[i] = u128FromBig(qhat)
		b.qHatRes[i] = make([]uint32, k)
		for j := range moduli {
			b.qHatRes[i][j] = uint32(b.qHat[i].Mod64(uint64(moduli[j])))
		}
		b.tInv[i] = b.Mods[i].Inv(b.qHatRes[i][i])
		b.halfQRes[i] = uint32(u128FromBig(halfQ).Mod64(uint64(qi)))
	}
	return b, nil
}

// QHat returns q/qᵢ for channel i.
func (b *Basis) QHat(i int) Uint128 { return b.qHat[i] }

// QHatRes returns (q/qᵢ) mod qⱼ — the basis-conversion constant table.
func (b *Basis) QHatRes(i, j int) uint32 { return b.qHatRes[i][j] }

// TInv returns (q/qᵢ)⁻¹ mod qᵢ for channel i.
func (b *Basis) TInv(i int) uint32 { return b.tInv[i] }

// HalfQRes returns ⌊q/2⌋ mod qᵢ — the encoding offset's channel residue.
func (b *Basis) HalfQRes(i int) uint32 { return b.halfQRes[i] }

// Q128 returns the composite modulus in accumulator width.
func (b *Basis) Q128() Uint128 { return b.q128 }

// ReconstructCoeff CRT-reconstructs coefficient j of the flat residue
// polynomial p (k rows of N, row i at [i·N, (i+1)·N)) into its canonical
// value in [0, q): c = Σᵢ ((pᵢⱼ·tᵢ) mod qᵢ)·q̂ᵢ mod q. Allocation-free.
func (b *Basis) ReconstructCoeff(p []uint32, j int) Uint128 {
	var acc Uint128
	for i := 0; i < b.K; i++ {
		y := b.Mods[i].Mul(p[i*b.N+j], b.tInv[i])
		acc = acc.Add(b.qHat[i].MulSmall(uint64(y)))
	}
	// The sum is below k·q; fold with at most k-1 conditional subtractions.
	for {
		d, borrow := acc.sub(b.q128)
		if borrow != 0 {
			return acc
		}
		acc = d
	}
}

// DecodeCoeff maps a reconstructed coefficient c ∈ [0, q) back to its
// message bit with the threshold test 4c ∈ (q, 3q), evaluated branchlessly
// from subtraction borrows (4c can equal neither q nor 3q: q is odd).
func (b *Basis) DecodeCoeff(c Uint128) byte {
	t := c.Shl2()
	_, gt := b.q128.sub(t) // 1 iff t > q
	_, lt := t.sub(b.q3)   // 1 iff 3q > t... borrow set when q3 > t is false
	// sub(t, q3) borrows iff q3 > t, i.e. t < 3q.
	return byte(gt & lt)
}

// DecomposeCoeff writes the residues of v (any non-negative big integer;
// reduced mod q) into coefficient j of p. Oracle/test path — allocates.
func (b *Basis) DecomposeCoeff(p []uint32, j int, v *big.Int) {
	r := new(big.Int).Mod(v, b.QBig)
	for i, qi := range b.Moduli {
		p[i*b.N+j] = uint32(new(big.Int).Mod(r, new(big.Int).SetUint64(uint64(qi))).Uint64())
	}
}

// CoeffBig returns coefficient j of p as a big integer, through the same
// Uint128 reconstruction the hot path uses (so differential tests exercise
// it). Oracle/test path — allocates.
func (b *Basis) CoeffBig(p []uint32, j int) *big.Int {
	return b.ReconstructCoeff(p, j).Big()
}

// ResolveEngines returns one engine per channel for the named backend,
// resolving "" / "auto" by ntt.ResolveEngine over every channel's tables
// (every channel gets the same backend). Results are cached per
// resolved name, so every scheme over this basis shares the same
// immutable engine instances.
func (b *Basis) ResolveEngines(name string) ([]ntt.Engine, error) {
	return b.enginesFor(ntt.ResolveEngine(name, b.Tables...))
}

func (b *Basis) enginesFor(name string) ([]ntt.Engine, error) {
	b.engMu.Lock()
	defer b.engMu.Unlock()
	if engs, ok := b.engCache[name]; ok {
		return engs, nil
	}
	engs := make([]ntt.Engine, b.K)
	for i, t := range b.Tables {
		e, err := ntt.NewEngine(name, t)
		if err != nil {
			return nil, fmt.Errorf("rns: channel %d (q=%d): %w", i, b.Moduli[i], err)
		}
		engs[i] = e
	}
	b.engCache[name] = engs
	return engs, nil
}
