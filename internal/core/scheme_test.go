package core

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"ringlwe/internal/ntt"
	"ringlwe/internal/rng"
)

func newScheme(t testing.TB, p *Params, seed uint64) *Scheme {
	t.Helper()
	s, err := New(p, rng.NewXorshift128(seed))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// prePoly returns ct's pre-decoding polynomial m' = m̄ + noise, computed on
// s's Runner by the ring half of every decryption.
func prePoly(s *Scheme, sk *PrivateKey, ct *Ciphertext) ntt.Poly {
	m := s.Params.newPoly()
	decryptPoly(s.runner, m, sk, ct)
	return m
}

func randMessage(src *rng.Xorshift128, n int) []byte {
	msg := make([]byte, n)
	for i := range msg {
		msg[i] = byte(src.Uint32())
	}
	return msg
}

func TestParamsP1P2(t *testing.T) {
	p1, p2 := P1(), P2()
	if p1.N != 256 || p1.Q != 7681 {
		t.Fatalf("P1 = (%d, %d)", p1.N, p1.Q)
	}
	if p2.N != 512 || p2.Q != 12289 {
		t.Fatalf("P2 = (%d, %d)", p2.N, p2.Q)
	}
	if p1.CoeffBits() != 13 || p2.CoeffBits() != 14 {
		t.Fatalf("coefficient widths %d, %d", p1.CoeffBits(), p2.CoeffBits())
	}
	if p1.MessageBytes() != 32 || p2.MessageBytes() != 64 {
		t.Fatalf("message sizes %d, %d", p1.MessageBytes(), p2.MessageBytes())
	}
	if p1.PolyBytes() != 416 || p2.PolyBytes() != 896 {
		t.Fatalf("poly sizes %d, %d", p1.PolyBytes(), p2.PolyBytes())
	}
	if math.Abs(p1.Sigma-4.5116) > 0.001 || math.Abs(p2.Sigma-4.8587) > 0.001 {
		t.Fatalf("sigmas %v, %v", p1.Sigma, p2.Sigma)
	}
}

func TestNewParamsRejectsBadSets(t *testing.T) {
	// q not prime.
	if _, err := NewParams("x", 256, 7680, 1131, 100, 90); err == nil {
		t.Error("composite q accepted")
	}
	// q ≢ 1 mod 2n (no 2n-th roots): 12289 ≡ 1 mod 2048 works for n=512;
	// 7681 fails for n=512.
	if _, err := NewParams("x", 512, 7681, 1131, 100, 90); err == nil {
		t.Error("q without 2n-th roots accepted")
	}
	// n not a multiple of 8.
	if _, err := NewParams("x", 4, 257, 1131, 100, 90); err == nil {
		t.Error("n=4 accepted")
	}
	// Bad Gaussian parameter.
	if _, err := NewParams("x", 256, 7681, 0, 100, 90); err == nil {
		t.Error("s=0 accepted")
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	for _, p := range []*Params{P1(), P2()} {
		s := newScheme(t, p, 1)
		pk, sk, err := s.GenerateKeys()
		if err != nil {
			t.Fatal(err)
		}
		src := rng.NewXorshift128(2)
		for trial := 0; trial < 25; trial++ {
			msg := randMessage(src, p.MessageBytes())
			ct, err := s.Encrypt(pk, msg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sk.Decrypt(ct)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, msg) {
				diff := 0
				for i := range got {
					for b := 0; b < 8; b++ {
						if (got[i]^msg[i])>>b&1 == 1 {
							diff++
						}
					}
				}
				// The LPR scheme has a small intrinsic failure rate; a
				// single flipped bit in a long run is within spec, many
				// flipped bits mean a real bug.
				if diff > 2 {
					t.Fatalf("%s trial %d: %d bit errors", p.Name, trial, diff)
				}
				t.Logf("%s trial %d: %d-bit decryption failure (within LPR failure rate)", p.Name, trial, diff)
			}
		}
	}
}

func TestDistinctKeysDistinctCiphertexts(t *testing.T) {
	p := P1()
	s := newScheme(t, p, 3)
	pk1, sk1, _ := s.GenerateKeys()
	pk2, sk2, _ := s.GenerateKeys()
	if equalPoly(pk1.A, pk2.A) || equalPoly(pk1.P, pk2.P) || equalPoly(sk1.R2, sk2.R2) {
		t.Fatal("two generated key pairs coincide")
	}
	msg := make([]byte, p.MessageBytes())
	ct1, _ := s.Encrypt(pk1, msg)
	ct2, _ := s.Encrypt(pk1, msg)
	if equalPoly(ct1.C1, ct2.C1) {
		t.Fatal("two encryptions of the same message coincide (missing randomness)")
	}
}

func equalPoly(a, b ntt.Poly) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSharedGlobalA(t *testing.T) {
	p := P1()
	s := newScheme(t, p, 4)
	w, err := s.NewWorkspace()
	if err != nil {
		t.Fatal(err)
	}
	a := w.UniformPoly()
	pk1, sk1, err := w.GenerateKeysShared(a)
	if err != nil {
		t.Fatal(err)
	}
	pk2, _, err := w.GenerateKeysShared(a)
	if err != nil {
		t.Fatal(err)
	}
	if !equalPoly(pk1.A, pk2.A) {
		t.Fatal("shared ã differs between key pairs")
	}
	msg := randMessage(rng.NewXorshift128(5), p.MessageBytes())
	ct, _ := s.Encrypt(pk1, msg)
	got, _ := sk1.Decrypt(ct)
	if !bytes.Equal(got, msg) {
		t.Log("decryption failure (within LPR failure rate)")
	}
	// Wrong length ã is rejected.
	if _, _, err := w.GenerateKeysShared(make(ntt.Poly, p.N-1)); err == nil {
		t.Fatal("short ã accepted")
	}
}

func TestWrongKeyFailsToDecrypt(t *testing.T) {
	p := P1()
	s := newScheme(t, p, 6)
	pk, _, _ := s.GenerateKeys()
	_, skOther, _ := s.GenerateKeys()
	msg := randMessage(rng.NewXorshift128(7), p.MessageBytes())
	ct, _ := s.Encrypt(pk, msg)
	got, err := skOther.Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	// The wrong key must not recover the message: expect ≈ half the bits to
	// differ.
	diff := 0
	for i := range got {
		for b := 0; b < 8; b++ {
			if (got[i]^msg[i])>>b&1 == 1 {
				diff++
			}
		}
	}
	total := 8 * len(msg)
	if diff < total/4 {
		t.Fatalf("wrong key recovered too much: %d/%d differing bits", diff, total)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := P1()
	src := rng.NewXorshift128(8)
	got := make([]byte, p.MessageBytes())
	for trial := 0; trial < 50; trial++ {
		msg := randMessage(src, p.MessageBytes())
		enc := p.newPoly()
		addEncoded(p, enc, msg)
		for _, c := range enc {
			if c != 0 && c != p.Q/2 {
				t.Fatalf("encode produced %d", c)
			}
		}
		if DecodeInto(got, p, enc); !bytes.Equal(got, msg) {
			t.Fatal("encode/decode mismatch")
		}
	}
	// The message length is checked where encryption takes the message.
	s := newScheme(t, p, 8)
	pk, _, err := s.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Encrypt(pk, make([]byte, 5)); err == nil {
		t.Fatal("short message accepted")
	}
}

// Decode thresholds: exactly the open interval (q/4, 3q/4) maps to 1.
func TestDecodeThresholds(t *testing.T) {
	p := P1()
	q := uint64(p.Q)
	poly := make(ntt.Poly, p.N)
	cases := map[uint32]byte{
		0:                 0,
		uint32(q / 4):     0, // 4c = 7680 < q? 4·1920 = 7680 < 7681 → 0
		uint32(q/4) + 1:   1, // 4·1921 = 7684 > 7681 → 1
		p.Q / 2:           1,
		uint32(3*q/4 + 1): 0, // 4·5761 = 23044 > 3q = 23043 → 0
		uint32(3 * q / 4): 1, // 4·5760 = 23040 < 23043 → 1
		p.Q - 1:           0,
	}
	dst := make([]byte, p.MessageBytes())
	for c, want := range cases {
		poly[0] = c
		DecodeInto(dst, p, poly)
		got := dst[0] & 1
		if got != want {
			t.Errorf("Decode(%d) = %d, want %d", c, got, want)
		}
	}
}

// Noise instrumentation: the decryption polynomial must equal the encoded
// message plus small noise, coefficient by coefficient.
func TestDecryptToPolyNoiseIsSmall(t *testing.T) {
	p := P1()
	s := newScheme(t, p, 9)
	pk, sk, _ := s.GenerateKeys()
	msg := randMessage(rng.NewXorshift128(10), p.MessageBytes())
	ct, _ := s.Encrypt(pk, msg)
	mprime := prePoly(s, sk, ct)
	enc := p.newPoly()
	addEncoded(p, enc, msg)
	maxNoise := 0
	for i := range mprime {
		d := int(mprime[i]) - int(enc[i])
		if d > int(p.Q)/2 {
			d -= int(p.Q)
		}
		if d < -int(p.Q)/2 {
			d += int(p.Q)
		}
		if d < 0 {
			d = -d
		}
		if d > maxNoise {
			maxNoise = d
		}
	}
	// Noise std ≈ 460 for P1; 8 std is a generous but meaningful bound.
	if maxNoise > 3700 {
		t.Fatalf("max noise %d suspiciously large", maxNoise)
	}
	if maxNoise == 0 {
		t.Fatal("noise is exactly zero: the error polynomials are missing")
	}
}

func TestUniformPolyDistribution(t *testing.T) {
	p := P1()
	w, err := newScheme(t, p, 11).NewWorkspace()
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	const rounds = 40
	for r := 0; r < rounds; r++ {
		u := w.UniformPoly()
		for _, c := range u {
			if c >= p.Q {
				t.Fatalf("coefficient %d out of range", c)
			}
			sum += float64(c)
		}
	}
	mean := sum / float64(rounds*p.N)
	want := float64(p.Q-1) / 2
	se := float64(p.Q) / math.Sqrt(12*float64(rounds*p.N))
	if math.Abs(mean-want) > 6*se {
		t.Errorf("uniform mean %v, want %v ± %v", mean, want, 6*se)
	}
}

func TestParameterSetMismatchRejected(t *testing.T) {
	s1 := newScheme(t, P1(), 12)
	s2 := newScheme(t, P2(), 13)
	pk2, sk2, _ := s2.GenerateKeys()
	msg1 := make([]byte, P1().MessageBytes())
	if _, err := s1.Encrypt(pk2, msg1); err == nil {
		t.Fatal("cross-parameter encryption accepted")
	}
	pk1, _, _ := s1.GenerateKeys()
	msg2 := make([]byte, P2().MessageBytes())
	ct2, _ := s2.Encrypt(pk2, msg2)
	if _, err := sk2.Decrypt(&Ciphertext{Params: P1(), C1: ct2.C1[:256], C2: ct2.C2[:256]}); err == nil {
		t.Fatal("cross-parameter decryption accepted")
	}
	_ = pk1
}

func TestEstimateFailureRate(t *testing.T) {
	p1c, p1m := P1().EstimateFailureRate()
	p2c, p2m := P2().EstimateFailureRate()
	// Analytic values: ≈3e-5 per coefficient at P1, ≈5e-5 at P2.
	if p1c < 1e-6 || p1c > 1e-3 {
		t.Errorf("P1 per-coefficient failure %v out of expected band", p1c)
	}
	if p2c < 1e-6 || p2c > 1e-3 {
		t.Errorf("P2 per-coefficient failure %v out of expected band", p2c)
	}
	if p1m <= p1c || p2m <= p2c {
		t.Error("per-message failure must exceed per-coefficient failure")
	}
}

func TestSamplerStatsAccumulate(t *testing.T) {
	p := P1()
	s := newScheme(t, p, 14)
	pk, _, _ := s.GenerateKeys()
	msg := make([]byte, p.MessageBytes())
	if _, err := s.Encrypt(pk, msg); err != nil {
		t.Fatal(err)
	}
	samples, l1, l2, scans := s.SamplerStats()
	// KeyGen uses 2n samples, Encrypt 3n.
	if samples != uint64(5*p.N) {
		t.Fatalf("samples = %d, want %d", samples, 5*p.N)
	}
	if l1+l2+scans != samples {
		t.Fatal("sampler counters inconsistent")
	}
}

func BenchmarkKeyGenP1(b *testing.B)  { benchKeyGen(b, P1()) }
func BenchmarkKeyGenP2(b *testing.B)  { benchKeyGen(b, P2()) }
func BenchmarkEncryptP1(b *testing.B) { benchEncrypt(b, P1()) }
func BenchmarkEncryptP2(b *testing.B) { benchEncrypt(b, P2()) }
func BenchmarkDecryptP1(b *testing.B) { benchDecrypt(b, P1()) }
func BenchmarkDecryptP2(b *testing.B) { benchDecrypt(b, P2()) }

func benchKeyGen(b *testing.B, p *Params) {
	s := newScheme(b, p, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.GenerateKeys(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchEncrypt(b *testing.B, p *Params) {
	s := newScheme(b, p, 1)
	pk, _, _ := s.GenerateKeys()
	msg := make([]byte, p.MessageBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Encrypt(pk, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDecrypt(b *testing.B, p *Params) {
	s := newScheme(b, p, 1)
	pk, sk, _ := s.GenerateKeys()
	msg := make([]byte, p.MessageBytes())
	ct, _ := s.Encrypt(pk, msg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.Decrypt(ct); err != nil {
			b.Fatal(err)
		}
	}
}

// TestOneShotConcurrent calls every one-shot Scheme method from 8
// goroutines on one scheme: the mutex around the default workspace must
// keep its sampler and bit pools coherent (run under -race), and every
// ciphertext must still decrypt. A1 and B1 keep the intrinsic decryption
// failure rate negligible, so any mismatch is corruption.
func TestOneShotConcurrent(t *testing.T) {
	for _, p := range []*Params{A1(), B1()} {
		s := newScheme(t, p, 41)
		const workers, rounds = 8, 3
		errs := make(chan error, workers)
		for w := range workers {
			go func() { errs <- oneShotRounds(s, rounds, uint64(w)) }()
		}
		for range workers {
			if err := <-errs; err != nil {
				t.Errorf("%s: %v", p.Name, err)
			}
		}
	}
}

func oneShotRounds(s *Scheme, rounds int, seed uint64) error {
	msgSrc := rng.NewXorshift128(seed + 100)
	for r := 0; r < rounds; r++ {
		s.FillRandom(make([]byte, 33))
		pk, sk, err := s.GenerateKeys()
		if err != nil {
			return err
		}
		msg := randMessage(msgSrc, s.Params.MessageBytes())
		ct, err := s.Encrypt(pk, msg)
		if err != nil {
			return err
		}
		got, err := sk.Decrypt(ct)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, msg) {
			return errors.New("concurrent one-shot encryption does not decrypt")
		}
	}
	return nil
}
