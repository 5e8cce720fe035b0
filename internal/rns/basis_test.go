package rns

import (
	"math/big"
	"testing"
)

// Small NTT-friendly primes ≡ 1 (mod 16), usable at ring degree n = 8 —
// small enough that the composite moduli below are exhaustively testable.
var smallPrimes = []uint32{17, 97, 113, 193, 241, 257, 337, 353}

// TestBasisConstantsExhaustive verifies every cached CRT/basis-conversion
// constant against math/big, then round-trips every value of Z_q through
// decompose → Uint128 reconstruct for each small composite basis: the
// constants and the accumulator arithmetic are exact on the full group,
// not just on sampled points.
func TestBasisConstantsExhaustive(t *testing.T) {
	const n = 8
	cases := [][]uint32{
		{17},
		{17, 97},
		{17, 97, 113},
		{17, 97, 113, 193},
		{241, 257, 337, 353},
	}
	for _, moduli := range cases {
		b, err := NewBasis(n, moduli)
		if err != nil {
			t.Fatalf("NewBasis(%v): %v", moduli, err)
		}

		// Constants against the big-integer definitions.
		q := big.NewInt(1)
		for _, qi := range moduli {
			q.Mul(q, big.NewInt(int64(qi)))
		}
		if b.QBig.Cmp(q) != 0 {
			t.Fatalf("%v: QBig = %v, want %v", moduli, b.QBig, q)
		}
		halfQ := new(big.Int).Rsh(q, 1)
		for i, qi := range moduli {
			qhat := new(big.Int).Div(q, big.NewInt(int64(qi)))
			if b.qHat[i].Big().Cmp(qhat) != 0 {
				t.Errorf("%v: qHat[%d] = %v, want %v", moduli, i, b.qHat[i].Big(), qhat)
			}
			// tInv inverts q̂ᵢ in channel i.
			qhatRes := new(big.Int).Mod(qhat, big.NewInt(int64(qi))).Uint64()
			if prod := (qhatRes * uint64(b.tInv[i])) % uint64(qi); prod != 1 {
				t.Errorf("%v: tInv[%d]: q̂ᵢ·tᵢ ≡ %d (mod %d), want 1", moduli, i, prod, qi)
			}
			wantHalf := uint32(new(big.Int).Mod(halfQ, big.NewInt(int64(qi))).Uint64())
			if got := b.HalfQRes(i); got != wantHalf {
				t.Errorf("%v: HalfQRes(%d) = %d, want %d", moduli, i, got, wantHalf)
			}
		}

		// Round trip and threshold decode over Z_q: exhaustive when the
		// composite is small (k ≤ 2 here), strided with the decode
		// boundaries q/4 and 3q/4 pinned exactly when it is not.
		p := make([]uint32, b.K*b.N)
		qu := q.Uint64()
		threeQ := 3 * qu
		step := uint64(1)
		if qu > 1<<21 {
			step = qu / (1 << 20)
		}
		check := func(c uint64) {
			for i, qi := range moduli {
				p[i*b.N] = uint32(c % uint64(qi))
			}
			got := b.ReconstructCoeff(p, 0)
			if got.Hi != 0 || got.Lo != c {
				t.Fatalf("%v: reconstruct(%d) = {%d,%d}", moduli, c, got.Hi, got.Lo)
			}
			wantBit := byte(0)
			if 4*c > qu && 4*c < threeQ {
				wantBit = 1
			}
			if bit := b.DecodeCoeff(got); bit != wantBit {
				t.Fatalf("%v: DecodeCoeff(%d) = %d, want %d", moduli, c, bit, wantBit)
			}
		}
		for c := uint64(0); c < qu; c += step {
			check(c)
		}
		// The decode thresholds and extremes, exactly.
		for _, edge := range []uint64{0, 1, qu / 4, qu/4 + 1, qu / 2, 3 * qu / 4, 3*qu/4 + 1, qu - 1} {
			check(edge)
		}
	}
}

func TestNewBasisRejects(t *testing.T) {
	const n = 8
	for _, tc := range []struct {
		name   string
		n      int
		moduli []uint32
	}{
		{"empty", n, nil},
		{"too many", n, []uint32{17, 97, 113, 193, 241}},
		{"duplicate", n, []uint32{17, 17}},
		{"composite", n, []uint32{15}},
		{"not 1 mod 2n", n, []uint32{19}},
		{"even", n, []uint32{16}},
	} {
		if _, err := NewBasis(tc.n, tc.moduli); err == nil {
			t.Errorf("%s: NewBasis(%d, %v) accepted, want error", tc.name, tc.n, tc.moduli)
		}
	}
}

// TestBasisEngineResolution checks per-channel engine construction:
// explicit names build one engine per channel over the right tables,
// results are cached, "auto" over this n = 8 basis (too small for the
// vector kernels) falls back to barrett, and unknown names error.
func TestBasisEngineResolution(t *testing.T) {
	b, err := NewBasis(8, []uint32{17, 97, 113})
	if err != nil {
		t.Fatal(err)
	}
	engs, err := b.ResolveEngines("barrett")
	if err != nil {
		t.Fatalf("ResolveEngines(barrett): %v", err)
	}
	if len(engs) != 3 {
		t.Fatalf("got %d engines, want 3", len(engs))
	}
	for i, e := range engs {
		if e.Tables().M.Q != b.Moduli[i] {
			t.Errorf("engine %d over q=%d, want %d", i, e.Tables().M.Q, b.Moduli[i])
		}
	}
	again, err := b.ResolveEngines("barrett")
	if err != nil || &again[0] == &engs[0] && again[0] != engs[0] {
		t.Fatalf("cache miss or error on second resolve: %v", err)
	}
	if again[0] != engs[0] {
		t.Error("ResolveEngines did not cache engine instances")
	}
	if auto, err := b.ResolveEngines("auto"); err != nil {
		t.Errorf("ResolveEngines(auto): %v", err)
	} else if auto[0].Name() != "barrett" {
		t.Errorf("ResolveEngines(auto) over n=8 built %q, want barrett", auto[0].Name())
	}
	if _, err := b.ResolveEngines("no-such-engine"); err == nil {
		t.Error("unknown engine accepted")
	}
}
