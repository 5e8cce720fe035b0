package core

import (
	"math"
	"testing"

	"ringlwe/internal/ntt"
	"ringlwe/internal/rng"
)

// Empirical decryption-failure measurement — an extension experiment the
// paper does not run but downstream users of the LPR scheme need: the
// analytic Gaussian estimate (EstimateFailureRate) is validated against
// observed bit-error counts.
func TestEmpiricalFailureRateMatchesAnalytic(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test (runs thousands of encryptions)")
	}
	p := P1()
	s := newScheme(t, p, 2024)
	pk, sk, err := s.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	perBit, _ := p.EstimateFailureRate()

	const encryptions = 3000
	bits := encryptions * p.N
	expected := perBit * float64(bits)
	if expected < 5 {
		t.Fatalf("test underpowered: expected only %.1f failures", expected)
	}

	src := rng.NewXorshift128(2025)
	msg := make([]byte, p.MessageBytes())
	var flipped int
	for e := 0; e < encryptions; e++ {
		for i := range msg {
			msg[i] = byte(src.Uint32())
		}
		ct, err := s.Encrypt(pk, msg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sk.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			d := got[i] ^ msg[i]
			for ; d != 0; d &= d - 1 {
				flipped++
			}
		}
	}
	// Poisson-ish acceptance: within ±5√λ of the analytic mean (the
	// Gaussian-tail estimate itself is only accurate to tens of percent).
	lo := expected - 5*math.Sqrt(expected) - 2
	hi := expected + 6*math.Sqrt(expected) + 2
	t.Logf("observed %d bit failures over %d encryptions (analytic mean %.1f)", flipped, encryptions, expected)
	if float64(flipped) < lo || float64(flipped) > hi {
		t.Errorf("observed %d bit failures, analytic mean %.1f (acceptance [%.1f, %.1f])",
			flipped, expected, lo, hi)
	}
}

// The decryption noise must be centered and have the predicted standard
// deviation √(2nσ⁴ + σ²) — the quantity the failure analysis rests on.
func TestDecryptionNoiseMoments(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	p := P1()
	s := newScheme(t, p, 31337)
	pk, sk, err := s.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, p.MessageBytes()) // all-zero message: noise is m' itself
	wantStd := math.Sqrt(2*float64(p.N)*math.Pow(p.Sigma, 4) + p.Sigma*p.Sigma)

	var sum, sumSq float64
	var count int
	for e := 0; e < 200; e++ {
		ct, err := s.Encrypt(pk, msg)
		if err != nil {
			t.Fatal(err)
		}
		mp := prePoly(s, sk, ct)
		for _, c := range mp {
			v := centerLift(c, p.Q)
			sum += v
			sumSq += v * v
			count++
		}
	}
	mean := sum / float64(count)
	std := math.Sqrt(sumSq/float64(count) - mean*mean)
	if math.Abs(mean) > wantStd/10 {
		t.Errorf("noise mean %v, want ≈ 0 (std %v)", mean, wantStd)
	}
	// Keys are fixed across encryptions, so the effective variance has a
	// key-dependent component; allow ±20%.
	if math.Abs(std-wantStd)/wantStd > 0.20 {
		t.Errorf("noise std %v, analytic %v", std, wantStd)
	}
}

func centerLift(c, q uint32) float64 {
	if c > q/2 {
		return float64(c) - float64(q)
	}
	return float64(c)
}

// Failure injection: corrupting ciphertext coefficients by more than the
// decoding margin must corrupt the plaintext, and the scheme must not
// crash on any coefficient pattern.
func TestCiphertextCorruptionPropagates(t *testing.T) {
	p := P1()
	s := newScheme(t, p, 61)
	pk, sk, err := s.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	msg := randMessage(rng.NewXorshift128(62), p.MessageBytes())
	ct, err := s.Encrypt(pk, msg)
	if err != nil {
		t.Fatal(err)
	}
	// Shift one c̃2 coefficient by q/2: after the inverse transform this
	// spreads across all message positions, so decryption must differ.
	ct.C2[0] = p.Mod.Add(ct.C2[0], p.Q/2)
	got, err := sk.Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range got {
		if got[i] != msg[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("large ciphertext corruption left the plaintext intact")
	}

	// Degenerate ciphertexts decrypt without panicking.
	zero := &Ciphertext{Params: p, C1: make(ntt.Poly, p.N), C2: make(ntt.Poly, p.N)}
	if _, err := sk.Decrypt(zero); err != nil {
		t.Errorf("all-zero ciphertext: %v", err)
	}
	maxed := &Ciphertext{Params: p, C1: make(ntt.Poly, p.N), C2: make(ntt.Poly, p.N)}
	for i := 0; i < p.N; i++ {
		maxed.C1[i] = p.Q - 1
		maxed.C2[i] = p.Q - 1
	}
	if _, err := sk.Decrypt(maxed); err != nil {
		t.Errorf("max-coefficient ciphertext: %v", err)
	}
}
