package core

import (
	"bytes"
	"sync"
	"testing"

	"ringlwe/internal/rng"
)

// TestWorkspaceEncryptMatchesLegacy pins the refactor's central invariant:
// the one-shot Scheme.Encrypt and the workspace EncryptInto consume the
// same randomness stream and compute the same ciphertext, so the KATs hold
// for both paths.
func TestWorkspaceEncryptMatchesLegacy(t *testing.T) {
	p := P1()
	s1 := newScheme(t, p, 99)
	s2 := newScheme(t, p, 99)
	pk1, sk1, err := s1.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	pk2, _, err := s2.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	if !equalPoly(pk1.A, pk2.A) || !equalPoly(pk1.P, pk2.P) {
		t.Fatal("same-seed schemes generated different keys")
	}
	msg := randMessage(rng.NewXorshift128(5), p.MessageBytes())

	ct1, err := s1.Encrypt(pk1, msg)
	if err != nil {
		t.Fatal(err)
	}
	ct2 := NewCiphertext(p)
	if err := s2.def.EncryptInto(ct2, pk2, msg); err != nil {
		t.Fatal(err)
	}
	if !equalPoly(ct1.C1, ct2.C1) || !equalPoly(ct1.C2, ct2.C2) {
		t.Fatal("workspace EncryptInto diverges from legacy Encrypt on the same stream")
	}

	// And DecryptInto agrees with the legacy decryption.
	want, err := sk1.Decrypt(ct1)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, p.MessageBytes())
	if err := s1.def.DecryptInto(got, sk1, ct2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("DecryptInto diverges from legacy Decrypt")
	}
}

func TestWorkspaceEncryptZeroAlloc(t *testing.T) {
	p := P1()
	s := newScheme(t, p, 42)
	pk, sk, err := s.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	ws, err := s.NewWorkspace()
	if err != nil {
		t.Fatal(err)
	}
	msg := randMessage(rng.NewXorshift128(6), p.MessageBytes())
	ct := NewCiphertext(p)
	out := make([]byte, p.MessageBytes())

	if n := testing.AllocsPerRun(50, func() {
		if err := ws.EncryptInto(ct, pk, msg); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("steady-state EncryptInto allocates %v times per op, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		if err := ws.DecryptInto(out, sk, ct); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("steady-state DecryptInto allocates %v times per op, want 0", n)
	}
}

func TestWorkspaceRejectsBadInputs(t *testing.T) {
	p1, p2 := P1(), P2()
	s := newScheme(t, p1, 8)
	pk, sk, _ := s.GenerateKeys()
	ws, err := s.NewWorkspace()
	if err != nil {
		t.Fatal(err)
	}
	ct := NewCiphertext(p1)
	if err := ws.EncryptInto(ct, pk, make([]byte, 3)); err == nil {
		t.Error("short message accepted")
	}
	if err := ws.EncryptInto(NewCiphertext(p2), pk, make([]byte, p1.MessageBytes())); err == nil {
		t.Error("foreign ciphertext buffer accepted")
	}
	s2 := newScheme(t, p2, 9)
	pk2, _, _ := s2.GenerateKeys()
	if err := ws.EncryptInto(ct, pk2, make([]byte, p1.MessageBytes())); err == nil {
		t.Error("foreign public key accepted")
	}
	if err := ws.DecryptInto(make([]byte, 3), sk, ct); err == nil {
		t.Error("short output buffer accepted")
	}
}

// TestSamplerStatsAggregateAcrossWorkspaces checks that SamplerStats sums
// the counters of the default workspace and every forked one, read safely
// while other goroutines are encrypting.
func TestSamplerStatsAggregateAcrossWorkspaces(t *testing.T) {
	p := P1()
	s := newScheme(t, p, 23)
	pk, _, err := s.GenerateKeys() // 2n samples on the default workspace
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const perG = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws, err := s.NewWorkspace()
			if err != nil {
				t.Error(err)
				return
			}
			ct := NewCiphertext(p)
			msg := make([]byte, p.MessageBytes())
			for i := 0; i < perG; i++ {
				if err := ws.EncryptInto(ct, pk, msg); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	samples, l1, l2, scans := s.SamplerStats()
	want := uint64(2*p.N + goroutines*perG*3*p.N)
	if samples != want {
		t.Fatalf("aggregated samples = %d, want %d", samples, want)
	}
	if l1+l2+scans != samples {
		t.Fatal("aggregated sampler counters inconsistent")
	}
}
