package core

import (
	"errors"
	"sync"
	"testing"

	"ringlwe/internal/ntt"
	"ringlwe/internal/rng"
	"ringlwe/internal/sampler"
)

// TestMaxAddendsPinned pins the noise budget of every built-in set. These
// values fall out of the Gaussian tail model at the 1e-2 per-coefficient
// target; a change means the noise model (or a parameter) moved and every
// aggregation deployment's capacity planning moves with it.
func TestMaxAddendsPinned(t *testing.T) {
	for _, c := range []struct {
		p    *Params
		want int
	}{{P1(), 2}, {P2(), 2}, {A1(), 26}} {
		if got := c.p.MaxAddends(); got != c.want {
			t.Errorf("%s: MaxAddends = %d, want %d", c.p.Name, got, c.want)
		}
	}
}

// TestA1Params pins the aggregation set's derived constants the way
// TestParamsP1P2 pins the paper sets'.
func TestA1Params(t *testing.T) {
	p := A1()
	if p.N != 256 || p.Q != 12289 {
		t.Fatalf("A1 = (%d, %d)", p.N, p.Q)
	}
	if p.CoeffBits() != 14 || p.MessageBytes() != 32 || p.PolyBytes() != 448 {
		t.Fatalf("A1 derived sizes: bits=%d msg=%d poly=%d", p.CoeffBits(), p.MessageBytes(), p.PolyBytes())
	}
	if pc, _ := p.EstimateFailureRate(); pc > 1e-30 {
		t.Fatalf("A1 fresh per-coefficient failure %.3g, want negligible", pc)
	}
	if LegacyTag(p) != 3 {
		t.Fatalf("A1 legacy tag = %d, want 3", LegacyTag(p))
	}
}

// TestEstimateAggFailureRateAtOneMatchesFresh checks the aggregate model
// degenerates to the fresh-ciphertext model at one unit.
func TestEstimateAggFailureRateAtOneMatchesFresh(t *testing.T) {
	for _, p := range []*Params{P1(), P2(), A1()} {
		pc1, pm1 := p.EstimateFailureRate()
		pcA, pmA := p.EstimateAggFailureRate(1)
		if pc1 != pcA || pm1 != pmA {
			t.Errorf("%s: EstimateAggFailureRate(1) = (%g, %g), want (%g, %g)", p.Name, pcA, pmA, pc1, pm1)
		}
	}
}

// TestEvalLinearIdentity checks the exact algebraic fact the evaluation
// layer rests on: the pre-decoding polynomial of a homomorphic combination
// equals the same combination of the inputs' pre-decoding polynomials,
// coefficient-wise mod q. Unlike the decoded-bit XOR property this identity
// holds with probability 1 (no noise threshold involved), so it is checked
// on every built-in set including the low-budget paper sets.
func TestEvalLinearIdentity(t *testing.T) {
	for _, p := range []*Params{P1(), P2(), A1()} {
		t.Run(p.Name, func(t *testing.T) {
			s := newScheme(t, p, 901)
			pk, sk, err := s.GenerateKeys()
			if err != nil {
				t.Fatal(err)
			}
			src := rng.NewXorshift128(902)
			ct1, err := s.Encrypt(pk, randMessage(src, p.MessageBytes()))
			if err != nil {
				t.Fatal(err)
			}
			ct2, err := s.Encrypt(pk, randMessage(src, p.MessageBytes()))
			if err != nil {
				t.Fatal(err)
			}
			m1 := prePoly(s, sk, ct1)
			m2 := prePoly(s, sk, ct2)
			mod := p.Mod

			sum := NewCiphertext(p)
			if err := s.EvalAddInto(sum, ct1, ct2); err != nil {
				t.Fatal(err)
			}
			if sum.Addends != 2 {
				t.Fatalf("sum.Addends = %d, want 2", sum.Addends)
			}
			mSum := prePoly(s, sk, sum)
			for i := range mSum {
				if want := mod.Add(m1[i], m2[i]); mSum[i] != want {
					t.Fatalf("add: coeff %d = %d, want %d", i, mSum[i], want)
				}
			}

			diff := NewCiphertext(p)
			if err := s.EvalSubInto(diff, ct1, ct2); err != nil {
				t.Fatal(err)
			}
			mDiff := prePoly(s, sk, diff)
			for i := range mDiff {
				if want := mod.Sub(m1[i], m2[i]); mDiff[i] != want {
					t.Fatalf("sub: coeff %d = %d, want %d", i, mDiff[i], want)
				}
			}

			// Scalar 1 is the only generally budget-safe scalar on the paper
			// sets (ĉ=1 keeps the charge at a.Addends); A1 affords ĉ up to 5
			// with its 26-unit budget (25·1 ≤ 26).
			scalars := []uint32{1}
			if p.MaxAddends() >= 25 {
				scalars = append(scalars, 5, p.Q-5) // ĉ = 5 either way
			}
			for _, k := range scalars {
				scaled := NewCiphertext(p)
				if err := s.EvalScalarMulInto(scaled, ct1, k); err != nil {
					t.Fatalf("scalar %d: %v", k, err)
				}
				mScaled := prePoly(s, sk, scaled)
				for i := range mScaled {
					if want := mod.Mul(m1[i], k%p.Q); mScaled[i] != want {
						t.Fatalf("scalar %d: coeff %d = %d, want %d", k, i, mScaled[i], want)
					}
				}
			}

			// Aliased accumulator: folding into the destination in place must
			// match the out-of-place result.
			acc := NewCiphertext(p)
			acc.CopyFrom(ct1)
			if err := s.EvalAddInto(acc, acc, ct2); err != nil {
				t.Fatal(err)
			}
			for i := range acc.C1 {
				if acc.C1[i] != sum.C1[i] || acc.C2[i] != sum.C2[i] {
					t.Fatalf("aliased add diverges at coeff %d", i)
				}
			}
		})
	}
}

// TestEvalNoiseAccounting exercises the budget bookkeeping: unit counts on
// fresh/zero/parsed ciphertexts, the refusal path (with the destination left
// untouched), and the scalar charge rule.
func TestEvalNoiseAccounting(t *testing.T) {
	p := A1()
	s := newScheme(t, p, 905)
	pk, _, err := s.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, p.MessageBytes())
	fresh, err := s.Encrypt(pk, msg)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Addends != 1 {
		t.Fatalf("fresh Addends = %d, want 1", fresh.Addends)
	}

	parsed, err := ParseCiphertext(p, fresh.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Addends != 1 {
		t.Fatalf("parsed Addends = %d, want 1", parsed.Addends)
	}

	acc := NewCiphertext(p)
	if acc.Addends != 0 {
		t.Fatalf("new ciphertext Addends = %d, want 0", acc.Addends)
	}
	// Fold fresh units up to exactly the budget.
	for i := 0; i < p.MaxAddends(); i++ {
		if err := s.EvalAddInto(acc, acc, fresh); err != nil {
			t.Fatalf("fold %d: %v", i, err)
		}
	}
	if acc.Addends != uint64(p.MaxAddends()) {
		t.Fatalf("Addends = %d, want %d", acc.Addends, p.MaxAddends())
	}
	// One more must refuse and leave acc byte-identical.
	before := NewCiphertext(p)
	before.CopyFrom(acc)
	if err := s.EvalAddInto(acc, acc, fresh); !errors.Is(err, ErrNoiseBudget) {
		t.Fatalf("over-budget add: err = %v, want ErrNoiseBudget", err)
	}
	if acc.Addends != before.Addends {
		t.Fatalf("refused add mutated Addends: %d", acc.Addends)
	}
	for i := range acc.C1 {
		if acc.C1[i] != before.C1[i] || acc.C2[i] != before.C2[i] {
			t.Fatalf("refused add mutated coefficients at %d", i)
		}
	}
	if err := s.EvalSubInto(acc, acc, fresh); !errors.Is(err, ErrNoiseBudget) {
		t.Fatalf("over-budget sub: err = %v, want ErrNoiseBudget", err)
	}

	// Scalar charge: ĉ = min(k, q−k); charge = Addends·ĉ².
	dst := NewCiphertext(p)
	if err := s.EvalScalarMulInto(dst, fresh, 5); err != nil {
		t.Fatal(err)
	}
	if dst.Addends != 25 {
		t.Fatalf("scalar-5 Addends = %d, want 25", dst.Addends)
	}
	if err := s.EvalScalarMulInto(dst, fresh, p.Q-5); err != nil {
		t.Fatal(err)
	}
	if dst.Addends != 25 {
		t.Fatalf("scalar q-5 Addends = %d, want 25 (lifted magnitude)", dst.Addends)
	}
	if err := s.EvalScalarMulInto(dst, fresh, 6); !errors.Is(err, ErrNoiseBudget) {
		t.Fatalf("scalar-6 err = %v, want ErrNoiseBudget (charge 36 > 26)", err)
	}
	if err := s.EvalScalarMulInto(dst, fresh, 0); err != nil {
		t.Fatal(err)
	}
	if dst.Addends != 0 {
		t.Fatalf("scalar-0 Addends = %d, want 0 (annihilates noise)", dst.Addends)
	}
	for i := range dst.C1 {
		if dst.C1[i] != 0 || dst.C2[i] != 0 {
			t.Fatalf("scalar-0 left nonzero coefficient at %d", i)
		}
	}

	// Cross-params ciphertexts are rejected before any budget logic.
	other := NewCiphertext(P1())
	if err := s.EvalAddInto(acc, before, other); err == nil || errors.Is(err, ErrNoiseBudget) {
		t.Fatalf("cross-params add: err = %v, want parameter mismatch", err)
	}
}

// TestEvalXORAcrossEngines is the differential correctness test of the
// evaluation subsystem: on every registered NTT backend × sampler backend,
// the decryption of a k-fold homomorphic sum equals the XOR of the k
// plaintexts. It runs on A1 at k=4, where the analytic per-message failure
// rate is ~1e-10 — strict equality never flakes. Workers share one Scheme
// per configuration and hammer it concurrently, so `go test -race` also
// proves the evaluation path is workspace-safe.
func TestEvalXORAcrossEngines(t *testing.T) {
	p := A1()
	const k = 4
	for _, engName := range ntt.EngineNames() {
		for _, smpName := range sampler.Names() {
			name := engName + "/" + smpName
			t.Run(name, func(t *testing.T) {
				s, err := NewWithOptions(p, rng.NewXorshift128(906), Options{Engine: engName, Sampler: smpName})
				if err != nil {
					t.Skipf("backend unavailable: %v", err)
				}
				pk, sk, err := s.GenerateKeys()
				if err != nil {
					t.Fatal(err)
				}
				var wg sync.WaitGroup
				errCh := make(chan error, 4)
				for g := 0; g < 4; g++ {
					wg.Add(1)
					go func(seed uint64) {
						defer wg.Done()
						w, err := s.NewWorkspace()
						if err != nil {
							errCh <- err
							return
						}
						src := rng.NewXorshift128(seed)
						msgs := make([][]byte, k)
						acc := NewCiphertext(p)
						ct := NewCiphertext(p)
						want := make([]byte, p.MessageBytes())
						for trial := 0; trial < 8; trial++ {
							acc.Zero()
							for i := range want {
								want[i] = 0
							}
							for j := 0; j < k; j++ {
								msgs[j] = randMessage(src, p.MessageBytes())
								if err := w.EncryptInto(ct, pk, msgs[j]); err != nil {
									errCh <- err
									return
								}
								if err := s.EvalAddInto(acc, acc, ct); err != nil {
									errCh <- err
									return
								}
								for i := range want {
									want[i] ^= msgs[j][i]
								}
							}
							got, err := sk.Decrypt(acc)
							if err != nil {
								errCh <- err
								return
							}
							for i := range got {
								if got[i] != want[i] {
									errCh <- errors.New("aggregate decrypt != XOR of plaintexts")
									return
								}
							}
						}
					}(907 + uint64(g))
				}
				wg.Wait()
				close(errCh)
				for err := range errCh {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestDecryptionFailureSweep empirically validates the MaxAddends bound on
// A1: aggregating a full budget of ciphertexts, the observed per-bit error
// rate stays below the 1e-2 modeling target (with slack for sampling noise),
// and the evaluation layer never silently passes the bound.
func TestDecryptionFailureSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test (runs hundreds of encryptions)")
	}
	p := A1()
	s := newScheme(t, p, 910)
	pk, sk, err := s.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	src := rng.NewXorshift128(911)
	k := p.MaxAddends()
	const trials = 40
	acc := NewCiphertext(p)
	ct := NewCiphertext(p)
	want := make([]byte, p.MessageBytes())
	w, err := s.NewWorkspace()
	if err != nil {
		t.Fatal(err)
	}
	var flipped, bits int
	for trial := 0; trial < trials; trial++ {
		acc.Zero()
		for i := range want {
			want[i] = 0
		}
		for j := 0; j < k; j++ {
			msg := randMessage(src, p.MessageBytes())
			if err := w.EncryptInto(ct, pk, msg); err != nil {
				t.Fatal(err)
			}
			if err := s.EvalAddInto(acc, acc, ct); err != nil {
				t.Fatalf("fold %d/%d: %v", j, k, err)
			}
			for i := range msg {
				want[i] ^= msg[i]
			}
		}
		got, err := sk.Decrypt(acc)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			d := got[i] ^ want[i]
			for ; d != 0; d &= d - 1 {
				flipped++
			}
		}
		bits += p.N

		// The very next fold must refuse: the sweep proves the boundary is
		// exactly where the model says, not one past it.
		if err := s.EvalAddInto(acc, acc, ct); !errors.Is(err, ErrNoiseBudget) {
			t.Fatalf("fold past budget: err = %v, want ErrNoiseBudget", err)
		}
	}
	rate := float64(flipped) / float64(bits)
	pcBound, _ := p.EstimateAggFailureRate(uint64(k))
	// 5× slack over the analytic bound absorbs sampling noise at this trial
	// count; the observed rate is typically well under the model.
	if rate > 5*pcBound {
		t.Fatalf("per-bit error rate %.4g exceeds 5× analytic bound %.4g", rate, pcBound)
	}
	t.Logf("k=%d: %d/%d bits flipped (%.4g; analytic bound %.4g)", k, flipped, bits, rate, pcBound)
}
