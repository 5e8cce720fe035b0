package ringlwe

import (
	"bytes"
	"fmt"
	"testing"
)

// Engine choice is a pure speed knob: the same deterministic seed must
// yield byte-identical keys and ciphertexts under every registered backend,
// and artifacts produced under one engine must parse and decrypt under a
// scheme running another. P1, P2 and A1 run the vector engine's AVX2
// kernels on an AVX2 host; B1's 29-bit channels run its portable kernels.
func TestWithEngineBitIdentical(t *testing.T) {
	for _, p := range []*Params{P1(), P2(), A1(), B1()} {
		t.Run(p.Name(), func(t *testing.T) { engineBitIdentical(t, p) })
	}
}

func engineBitIdentical(t *testing.T, p *Params) {
	msg := make([]byte, p.MessageSize())
	for i := range msg {
		msg[i] = byte(i * 37)
	}

	type artifact struct {
		engine  string
		pk, ct  []byte
		plain   []byte
		skBytes []byte
	}
	var arts []artifact
	for _, name := range Engines() {
		s := NewDeterministic(p, 12345, WithEngine(name))
		if s.Engine() != name {
			t.Fatalf("Engine() = %q, want %q", s.Engine(), name)
		}
		pk, sk, err := s.GenerateKeys()
		if err != nil {
			t.Fatal(err)
		}
		ct, err := s.Encrypt(pk, msg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sk.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		arts = append(arts, artifact{name, pk.Bytes(), ct.Bytes(), got, sk.Bytes()})
	}
	ref := arts[0]
	for _, a := range arts[1:] {
		if !bytes.Equal(a.pk, ref.pk) {
			t.Errorf("engine %s public key differs from %s", a.engine, ref.engine)
		}
		if !bytes.Equal(a.ct, ref.ct) {
			t.Errorf("engine %s ciphertext differs from %s", a.engine, ref.engine)
		}
		if !bytes.Equal(a.skBytes, ref.skBytes) {
			t.Errorf("engine %s private key differs from %s", a.engine, ref.engine)
		}
		if !bytes.Equal(a.plain, ref.plain) {
			t.Errorf("engine %s decryption differs from %s", a.engine, ref.engine)
		}
	}

	// Cross-engine interop: ciphertext from a barrett scheme decrypts
	// under a vector scheme's key material.
	sVector := NewDeterministic(p, 777, WithEngine("vector"))
	sBarrett := NewDeterministic(p, 777, WithEngine("barrett"))
	pk1, sk1, err := sVector.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	pk2, err := ParsePublicKey(p, pk1.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := sBarrett.Encrypt(pk2, msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sk1.Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	// Intrinsic failure rate allows rare bit flips; byte-identity holds with
	// overwhelming probability for one message — accept ≤ 2 flipped bits so
	// the test is not flaky on an in-spec decryption failure.
	flips := 0
	for i := range got {
		d := got[i] ^ msg[i]
		for ; d != 0; d &= d - 1 {
			flips++
		}
	}
	if flips > 2 {
		t.Fatalf("cross-engine decrypt flipped %d bits", flips)
	}
}

// An unregistered engine name fails construction loudly.
func TestWithEngineUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with unknown engine did not panic")
		}
	}()
	New(P1(), WithEngine("definitely-not-an-engine"))
}

// TestEngineFallbackEdgeSets: Custom sets the vector kernels refuse — a
// dimension below one lane block per stride class, a modulus just above
// the bound lemma's 2²⁹, and one at 2³⁰, past any lazy-domain headroom —
// resolve to barrett under both constructors and round-trip, while
// ConstantTime, which names vector, refuses them.
func TestEngineFallbackEdgeSets(t *testing.T) {
	for _, c := range []struct {
		n int
		q uint32
	}{{8, 7057}, {256, 536874497}, {256, 1073750017}} {
		p, err := Custom(fmt.Sprintf("n%d-q%d", c.n, c.q), c.n, c.q, 1131, 100)
		if err != nil {
			t.Fatal(err)
		}
		for ctor, s := range map[string]*Scheme{"New": New(p), "NewDeterministic": NewDeterministic(p, 3)} {
			if s.Engine() != "barrett" {
				t.Errorf("%s(%s) resolved engine %q, want barrett", ctor, p.Name(), s.Engine())
			}
			pk, sk, err := s.GenerateKeys()
			if err != nil {
				t.Fatal(err)
			}
			msg := make([]byte, p.MessageSize())
			for i := range msg {
				msg[i] = byte(i*29 + 1)
			}
			ct, err := s.Encrypt(pk, msg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sk.Decrypt(ct)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, msg) {
				t.Errorf("%s(%s): decrypt does not round-trip", ctor, p.Name())
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%s, ConstantTime()) did not panic", p.Name())
				}
			}()
			New(p, ConstantTime())
		}()
	}
}
