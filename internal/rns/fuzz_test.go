package rns

import (
	"math/big"
	"testing"

	"ringlwe/internal/ntt"
)

// fuzzBases are the decompositions FuzzRNSRoundTrip exercises: k = 1
// (degenerate, must match single-modulus arithmetic exactly) through the
// MaxK accumulator bound, at the small degree the big-integer oracle can
// afford per exec.
var fuzzBases = [][]uint32{
	{97},
	{17, 97},
	{17, 97, 113},
	{17, 97, 113, 193},
}

const fuzzN = 8

// negacyclicMulBig is the math/big reference oracle: schoolbook product in
// Z_q[x]/(x^n + 1).
func negacyclicMulBig(a, b []*big.Int, q *big.Int) []*big.Int {
	n := len(a)
	out := make([]*big.Int, n)
	for i := range out {
		out[i] = new(big.Int)
	}
	t := new(big.Int)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			t.Mul(a[i], b[j])
			if i+j < n {
				out[i+j].Add(out[i+j], t)
			} else {
				out[i+j-n].Sub(out[i+j-n], t)
			}
		}
	}
	for i := range out {
		out[i].Mod(out[i], q)
	}
	return out
}

// FuzzRNSRoundTrip differentially checks the full RNS pipeline — CRT
// decompose, per-channel engine arithmetic (add, negacyclic mul via NTT,
// scalar mul), Uint128 reconstruction — against a math/big oracle
// computing the same ring operations over the composite modulus directly.
func FuzzRNSRoundTrip(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{3, 0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, 0xde, 0xad})
	f.Add([]byte{2, 0, 0, 0, 0})

	bases := make([]*Basis, len(fuzzBases))
	runners := make([]*ntt.Runner, len(fuzzBases))
	for i, moduli := range fuzzBases {
		b, err := NewBasis(fuzzN, moduli)
		if err != nil {
			f.Fatal(err)
		}
		engs, err := b.ResolveEngines("barrett")
		if err != nil {
			f.Fatal(err)
		}
		r, err := ntt.NewRunner(engs)
		if err != nil {
			f.Fatal(err)
		}
		bases[i], runners[i] = b, r
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip()
		}
		b := bases[int(data[0])%len(bases)]
		r := runners[int(data[0])%len(bases)]
		data = data[1:]

		// Derive two big-coefficient polynomials and a scalar from the
		// fuzz bytes (LE words mod q).
		next := func() *big.Int {
			var buf [16]byte
			n := copy(buf[:], data)
			data = data[n:]
			v := new(big.Int).SetBytes(buf[:])
			return v.Mod(v, b.QBig)
		}
		aBig := make([]*big.Int, fuzzN)
		bBig := make([]*big.Int, fuzzN)
		for j := 0; j < fuzzN; j++ {
			aBig[j] = next()
			bBig[j] = next()
		}
		scalar := next()

		ap, bp := make(ntt.Poly, b.K*b.N), make(ntt.Poly, b.K*b.N)
		b.Decompose(ap, aBig)
		b.Decompose(bp, bBig)

		// Round trip: decompose → reconstruct is the identity on Z_q.
		for j, got := range b.Reconstruct(ap) {
			if got.Cmp(aBig[j]) != 0 {
				t.Fatalf("round trip coeff %d: got %v, want %v", j, got, aBig[j])
			}
		}

		// Add.
		sum := make(ntt.Poly, b.K*b.N)
		r.AddAll(sum, ap, bp)
		for j, got := range b.Reconstruct(sum) {
			want := new(big.Int).Add(aBig[j], bBig[j])
			want.Mod(want, b.QBig)
			if got.Cmp(want) != 0 {
				t.Fatalf("add coeff %d: got %v, want %v", j, got, want)
			}
		}

		// Scalar mul: every fuzz basis has q < 2³², so the scalar is one
		// word that each channel reduces mod its own prime.
		sc := make(ntt.Poly, b.K*b.N)
		r.ScalarMulAll(sc, ap, uint32(scalar.Uint64()))
		for j, got := range b.Reconstruct(sc) {
			want := new(big.Int).Mul(aBig[j], scalar)
			want.Mod(want, b.QBig)
			if got.Cmp(want) != 0 {
				t.Fatalf("scalar mul coeff %d: got %v, want %v", j, got, want)
			}
		}

		// Negacyclic mul: Forward → pointwise → Inverse over every channel
		// vs the schoolbook oracle.
		prod, fb := make(ntt.Poly, b.K*b.N), make(ntt.Poly, b.K*b.N)
		copy(prod, ap)
		copy(fb, bp)
		r.ForwardAll(prod)
		r.ForwardAll(fb)
		r.MulAll(prod, prod, fb)
		r.InverseAll(prod)
		oracle := negacyclicMulBig(aBig, bBig, b.QBig)
		for j, got := range b.Reconstruct(prod) {
			if got.Cmp(oracle[j]) != 0 {
				t.Fatalf("mul coeff %d: got %v, want %v", j, got, oracle[j])
			}
		}
	})
}
