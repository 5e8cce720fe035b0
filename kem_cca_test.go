package ringlwe

import (
	"bytes"
	"testing"
)

func TestCCAKEMRoundTrip(t *testing.T) {
	for _, p := range []*Params{P1(), P2()} {
		s := NewDeterministic(p, 7001)
		kp, err := s.GenerateCCAKeys()
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 5; trial++ {
			blob, keyA, err := s.EncapsulateCCA(kp.Public)
			if err != nil {
				t.Fatal(err)
			}
			if len(blob) != p.CiphertextSize() {
				t.Fatalf("blob is %d bytes, want one ciphertext (%d)", len(blob), p.CiphertextSize())
			}
			keyB, err := s.DecapsulateCCA(kp, blob)
			if err != nil {
				t.Fatal(err)
			}
			if keyA != keyB {
				// With these fixed seeds all trials decrypt correctly; a
				// mismatch means the FO re-encryption is broken, not an
				// intrinsic failure.
				t.Fatalf("%s trial %d: keys differ", p.Name(), trial)
			}
		}
	}
}

// TestCCACrossProfile encapsulates under one profile and decapsulates under
// the other, both ways, on P1 and B1. The FO re-encryption samples with
// knuth-yao and its engine and codec never change the result, so the
// decapsulator's re-encryption must match a blob from either profile.
func TestCCACrossProfile(t *testing.T) {
	for _, p := range []*Params{P1(), B1()} {
		def := NewDeterministic(p, 7010)
		ct := NewDeterministic(p, 7011, ConstantTime())
		for _, dir := range []struct {
			name     string
			enc, dec *Scheme
		}{{"constant-time→default", ct, def}, {"default→constant-time", def, ct}} {
			kp, err := dir.dec.GenerateCCAKeys()
			if err != nil {
				t.Fatal(err)
			}
			matched := 0
			const trials = 8
			for trial := 0; trial < trials; trial++ {
				blob, keyA, err := dir.enc.EncapsulateCCA(kp.Public)
				if err != nil {
					t.Fatal(err)
				}
				keyB, err := dir.dec.DecapsulateCCA(kp, blob)
				if err != nil {
					t.Fatal(err)
				}
				if keyA == keyB {
					matched++
				}
			}
			// An intrinsic decryption failure (≈0.8% at P1) lands in
			// implicit rejection; a re-encryption mismatch rejects every
			// trial.
			if matched < trials-1 {
				t.Errorf("%s %s: %d of %d keys agree", p.Name(), dir.name, matched, trials)
			}
		}
	}
}

// Derandomized encryption must be deterministic: identical coins yield the
// identical ciphertext; different coins differ.
func TestDerandomizedEncryptionDeterminism(t *testing.T) {
	p := P1()
	s := NewDeterministic(p, 7002)
	pk, _, err := s.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	m := make([]byte, p.MessageSize())
	m[3] = 0x5A
	a, err := s.encryptDerand(pk, m, []byte("coins-1"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.encryptDerand(pk, m, []byte("coins-1"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same coins produced different ciphertexts")
	}
	c, err := s.encryptDerand(pk, m, []byte("coins-2"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("different coins produced the same ciphertext")
	}
}

// Implicit rejection: tampering with the ciphertext yields a valid-looking
// but unrelated key, with no error signal for the attacker.
func TestCCAImplicitRejection(t *testing.T) {
	p := P1()
	s := NewDeterministic(p, 7003)
	kp, err := s.GenerateCCAKeys()
	if err != nil {
		t.Fatal(err)
	}
	blob, key, err := s.EncapsulateCCA(kp.Public)
	if err != nil {
		t.Fatal(err)
	}

	tampered := append([]byte(nil), blob...)
	tampered[100] ^= 0x04
	badKey, err := s.DecapsulateCCA(kp, tampered)
	if err != nil {
		t.Fatalf("tampering must not produce an explicit error, got %v", err)
	}
	if badKey == key {
		t.Fatal("tampered ciphertext decapsulated to the honest key")
	}
	var zero [SharedKeySize]byte
	if badKey == zero {
		t.Fatal("implicit rejection returned the zero key")
	}
	// The rejection key must be deterministic (same garbage → same key) so
	// the decapsulator leaks nothing through inconsistency.
	badKey2, err := s.DecapsulateCCA(kp, tampered)
	if err != nil {
		t.Fatal(err)
	}
	if badKey != badKey2 {
		t.Fatal("implicit rejection is not deterministic")
	}

	// Malformed sizes still error explicitly (that is public information).
	if _, err := s.DecapsulateCCA(kp, blob[:50]); err == nil {
		t.Fatal("truncated blob accepted")
	}
}

// Two encapsulations to the same key yield distinct keys and blobs.
func TestCCAEncapsulationsVary(t *testing.T) {
	p := P1()
	s := NewDeterministic(p, 7004)
	kp, err := s.GenerateCCAKeys()
	if err != nil {
		t.Fatal(err)
	}
	blob1, k1, err := s.EncapsulateCCA(kp.Public)
	if err != nil {
		t.Fatal(err)
	}
	blob2, k2, err := s.EncapsulateCCA(kp.Public)
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 || bytes.Equal(blob1, blob2) {
		t.Fatal("two encapsulations coincide")
	}
}

func TestCCACrossParameterRejected(t *testing.T) {
	s1 := NewDeterministic(P1(), 7005)
	s2 := NewDeterministic(P2(), 7006)
	kp2, err := s2.GenerateCCAKeys()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s1.EncapsulateCCA(kp2.Public); err == nil {
		t.Fatal("cross-parameter encapsulation accepted")
	}
	if _, err := s1.DecapsulateCCA(kp2, make([]byte, P1().CiphertextSize())); err == nil {
		t.Fatal("cross-parameter decapsulation accepted")
	}
}

func BenchmarkCCAEncapsulate(b *testing.B) {
	s := NewDeterministic(P1(), 7007)
	kp, err := s.GenerateCCAKeys()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.EncapsulateCCA(kp.Public); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCCADecapsulate(b *testing.B) {
	s := NewDeterministic(P1(), 7008)
	kp, err := s.GenerateCCAKeys()
	if err != nil {
		b.Fatal(err)
	}
	blob, _, err := s.EncapsulateCCA(kp.Public)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.DecapsulateCCA(kp, blob); err != nil {
			b.Fatal(err)
		}
	}
}
