package ringlwe

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// Self-describing round trips: both standard sets, all object kinds, no
// params argument on the read side.
func TestWireRoundTrip(t *testing.T) {
	for seed, p := range map[uint64]*Params{301: P1(), 302: P2()} {
		s := NewDeterministic(p, seed)
		pub, priv, err := s.GenerateKeys()
		if err != nil {
			t.Fatal(err)
		}
		msg := make([]byte, p.MessageSize())
		ct, err := s.Encrypt(pub, msg)
		if err != nil {
			t.Fatal(err)
		}

		pkBlob, err := pub.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		gotPK, err := ParseAnyPublicKey(pkBlob)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if gotPK.Params().Name() != p.Name() {
			t.Fatalf("recovered params %s, want %s", gotPK.Params().Name(), p.Name())
		}
		if !bytes.Equal(gotPK.Bytes(), pub.Bytes()) {
			t.Fatalf("%s: public key round trip mismatch", p.Name())
		}

		skBlob, err := priv.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		gotSK, err := ParseAnyPrivateKey(skBlob)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotSK.Bytes(), priv.Bytes()) {
			t.Fatalf("%s: private key round trip mismatch", p.Name())
		}

		ctBlob, err := ct.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		gotCT, err := ParseAnyCiphertext(ctBlob)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotCT.Bytes(), ct.Bytes()) {
			t.Fatalf("%s: ciphertext round trip mismatch", p.Name())
		}
		// The parsed ciphertext still decrypts under the parsed key.
		if _, err := gotSK.Decrypt(gotCT); err != nil {
			t.Fatal(err)
		}
	}
}

// AppendBinary preserves the caller's prefix, appends exactly the
// MarshalBinary encoding, and does not allocate when capacity suffices.
func TestWireAppendBinary(t *testing.T) {
	p := P1()
	s := NewDeterministic(p, 303)
	pub, _, err := s.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	want, err := pub.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("framed:")
	got, err := pub.AppendBinary(append([]byte(nil), prefix...))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatal("AppendBinary does not append the MarshalBinary encoding after the prefix")
	}

	buf := make([]byte, 0, len(want))
	if n := testing.AllocsPerRun(100, func() {
		buf = buf[:0]
		var err error
		buf, err = pub.AppendBinary(buf)
		if err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("AppendBinary into a sized buffer allocates %v objects/op, want 0", n)
	}
}

// EncapsulatedKey: the wire wrapper recovers the parameter set and leaves
// Decapsulate-ready bytes.
func TestWireEncapsulatedKey(t *testing.T) {
	for seed, p := range map[uint64]*Params{304: P1(), 305: P2()} {
		s := NewDeterministic(p, seed)
		pub, priv, err := s.GenerateKeys()
		if err != nil {
			t.Fatal(err)
		}
		blob, key, err := s.Encapsulate(pub)
		if err != nil {
			t.Fatal(err)
		}
		wire, err := blob.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		gotParams, gotBlob, err := ParseAnyEncapsulatedKey(wire)
		if err != nil {
			t.Fatal(err)
		}
		if gotParams.Name() != p.Name() {
			t.Fatalf("recovered params %s, want %s", gotParams.Name(), p.Name())
		}
		if !bytes.Equal(gotBlob, blob) {
			t.Fatal("encapsulation bytes changed in transit")
		}
		var ek EncapsulatedKey
		if err := ek.UnmarshalBinary(wire); err != nil {
			t.Fatal(err)
		}
		got, err := s.Decapsulate(priv, ek)
		if err != nil {
			// ErrDecapsulation here would be an intrinsic failure; the
			// deterministic seed is chosen to avoid it.
			t.Fatal(err)
		}
		if got != key {
			t.Fatal("KEM keys disagree after wire round trip")
		}
	}
}

// Malformed self-describing blobs fail loudly and precisely.
func TestWireErrors(t *testing.T) {
	p := P1()
	s := NewDeterministic(p, 306)
	pub, _, err := s.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := pub.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		errWant string
	}{
		{"truncated header", func(b []byte) []byte { return b[:4] }, "header"},
		{"empty", func(b []byte) []byte { return nil }, "header"},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, "magic"},
		{"bad version", func(b []byte) []byte { b[2] = 9; return b }, "version"},
		{"truncated body", func(b []byte) []byte { return b[:len(b)-1] }, "body"},
		{"trailing bytes", func(b []byte) []byte { return append(b, 0) }, "body"},
	}
	for _, c := range cases {
		mutated := c.mutate(append([]byte(nil), blob...))
		if _, err := ParseAnyPublicKey(mutated); err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !strings.Contains(err.Error(), c.errWant) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.errWant)
		}
	}

	// Unknown params ID wraps the sentinel.
	bad := append([]byte(nil), blob...)
	bad[4], bad[5] = 0xBE, 0xEF
	if _, err := ParseAnyPublicKey(bad); !errors.Is(err, ErrUnknownParams) {
		t.Errorf("unknown ID: error %v does not wrap ErrUnknownParams", err)
	}

	// Kind confusion: a public key blob is not a ciphertext.
	if _, err := ParseAnyCiphertext(blob); err == nil {
		t.Error("public key blob accepted as ciphertext")
	}

	// Legacy blobs are detected as such, not misparsed.
	if _, err := ParseAnyPublicKey(pub.Bytes()); err == nil || !strings.Contains(err.Error(), "legacy") {
		t.Errorf("legacy blob: error %v does not point at the legacy format", err)
	}
}

// Custom parameter sets join the self-describing format through the
// RegisterParams ID hook.
func TestWireCustomParams(t *testing.T) {
	custom, err := Custom("toy", 64, 7681, 1131, 100)
	if err != nil {
		t.Fatal(err)
	}
	s := NewDeterministic(custom, 307)
	pub, _, err := s.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}

	// Unregistered: marshaling is refused with an actionable error.
	if _, err := pub.MarshalBinary(); err == nil || !strings.Contains(err.Error(), "RegisterParams") {
		t.Fatalf("unregistered custom set marshaled (err=%v), want RegisterParams hint", err)
	}

	if err := RegisterParams(0x7001, custom); err != nil {
		t.Fatal(err)
	}
	// Release the ID afterwards so the test can run again (-count=N) with
	// a fresh custom set.
	t.Cleanup(func() {
		paramsRegistry.mu.Lock()
		delete(paramsRegistry.byID, 0x7001)
		paramsRegistry.mu.Unlock()
	})
	if got := custom.WireID(); got != 0x7001 {
		t.Fatalf("WireID = %d, want %d", got, 0x7001)
	}
	// Idempotent re-registration; conflicting claims rejected.
	if err := RegisterParams(0x7001, custom); err != nil {
		t.Fatalf("re-registering the same pair: %v", err)
	}
	if err := RegisterParams(0x7001, P1()); err == nil {
		t.Fatal("claiming a taken ID for different params succeeded")
	}
	if err := RegisterParams(0x7002, custom); err == nil {
		t.Fatal("registering one set under two IDs succeeded")
	}
	if err := RegisterParams(0, custom); err == nil {
		t.Fatal("wire ID 0 accepted")
	}

	blob, err := pub.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseAnyPublicKey(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Params().Name() != "toy" || !bytes.Equal(got.Bytes(), pub.Bytes()) {
		t.Fatal("custom set round trip mismatch")
	}
}
