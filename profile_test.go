package ringlwe

import (
	"bytes"
	"crypto/rand"
	"testing"
)

// Profile resolution. With no sampler named, New samples with wide-ky and
// NewDeterministic with the KAT-pinned knuth-yao, over every shipped set;
// both are the "default" profile, and ConstantTime is vector + cdt on
// every one of them. Each preset resolves to its documented
// backend combination, reported by Scheme.Profile and recoverable by Name.
func TestProfileResolution(t *testing.T) {
	for _, p := range []*Params{P1(), P2(), A1(), B1()} {
		for ctor, c := range map[string]struct {
			s    *Scheme
			want Profile
		}{
			"New":              {New(p), Profile{Engine: "vector", Sampler: "wide-ky"}},
			"NewDeterministic": {NewDeterministic(p, 1), Profile{Engine: "vector", Sampler: "knuth-yao"}},
		} {
			got := c.s.Profile()
			if got != c.want {
				t.Errorf("%s(%s) resolved to %+v, want %+v", ctor, p.Name(), got, c.want)
			}
			if got.Name() != "default" {
				t.Errorf("%s(%s) profile named %q, want \"default\"", ctor, p.Name(), got.Name())
			}
		}
		for _, s := range []*Scheme{New(p, ConstantTime()), NewDeterministic(p, 1, ConstantTime())} {
			if got, want := s.Profile(), (Profile{Engine: "vector", Sampler: "cdt"}); got != want || got.Name() != "constant-time" {
				t.Errorf("ConstantTime over %s resolved to %+v named %q, want %+v", p.Name(), got, got.Name(), want)
			}
		}
	}
	cases := []struct {
		name   string
		seeded bool // NewDeterministic rather than New
		opts   []Option
		want   Profile
	}{
		{"default", false, []Option{Fast()}, Profile{Engine: "vector", Sampler: "wide-ky"}},
		{"default", true, []Option{Fast()}, Profile{Engine: "vector", Sampler: "wide-ky"}},
		{"default", false, []Option{WithRandom(rand.Reader)}, Profile{Engine: "vector", Sampler: "wide-ky"}},
		{"default", false, []Option{WithRandom(rand.Reader), WithSampler("knuth-yao")}, Profile{Engine: "vector", Sampler: "knuth-yao"}},
		{"reference", false, []Option{Reference()}, Profile{Engine: "barrett", Sampler: "knuth-yao"}},
		{"reference", true, []Option{Reference()}, Profile{Engine: "barrett", Sampler: "knuth-yao"}},
		{"constant-time", true, []Option{ConstantTime()}, Profile{Engine: "vector", Sampler: "cdt"}},
		// The constant-time preset is the default engine with the cdt
		// sampler, so any options that resolve to that pair carry its name.
		{"constant-time", true, []Option{Fast(), WithSampler("cdt")}, Profile{Engine: "vector", Sampler: "cdt"}},
		{"constant-time", false, []Option{WithSampler("cdt")}, Profile{Engine: "vector", Sampler: "cdt"}},
		{"custom", true, []Option{WithEngine("barrett"), WithSampler("wide-ky")}, Profile{Engine: "barrett", Sampler: "wide-ky"}},
		{"custom", false, []Option{WithEngine("barrett"), WithSampler("cdt")}, Profile{Engine: "barrett", Sampler: "cdt"}},
		// WithProfile with zero fields resolves to the constructor's defaults.
		{"default", true, []Option{ConstantTime(), WithProfile(Profile{})}, Profile{Engine: "vector", Sampler: "knuth-yao"}},
		{"default", false, []Option{ConstantTime(), WithProfile(Profile{})}, Profile{Engine: "vector", Sampler: "wide-ky"}},
	}
	for _, c := range cases {
		s := New(P1(), c.opts...)
		if c.seeded {
			s = NewDeterministic(P1(), 1, c.opts...)
		}
		got := s.Profile()
		if got != c.want {
			t.Errorf("options %v (seeded %v) resolved to %+v, want %+v", c.opts, c.seeded, got, c.want)
		}
		if got.Name() != c.name {
			t.Errorf("profile %+v named %q, want %q", got, got.Name(), c.name)
		}
	}
}

// The Reference profile reproduces the KAT-pinned deterministic pipeline
// bit for bit: same seed, same keys, same ciphertext as the default
// configuration (engine choice consumes no randomness; the sampler is the
// same serial Knuth-Yao).
func TestReferenceProfileBitIdentical(t *testing.T) {
	for _, p := range []*Params{P1(), P2()} {
		def := NewDeterministic(p, 42)
		ref := NewDeterministic(p, 42, Reference())
		pkD, skD, err := def.GenerateKeys()
		if err != nil {
			t.Fatal(err)
		}
		pkR, skR, err := ref.GenerateKeys()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pkD.Bytes(), pkR.Bytes()) || !bytes.Equal(skD.Bytes(), skR.Bytes()) {
			t.Fatalf("%s: Reference() diverges from the KAT-pinned key stream", p.Name())
		}
		msg := make([]byte, p.MessageSize())
		for i := range msg {
			msg[i] = byte(i * 7)
		}
		ctD, err := def.Encrypt(pkD, msg)
		if err != nil {
			t.Fatal(err)
		}
		ctR, err := ref.Encrypt(pkR, msg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ctD.Bytes(), ctR.Bytes()) {
			t.Fatalf("%s: Reference() diverges from the KAT-pinned ciphertext stream", p.Name())
		}
	}
}

// Profile round trip: a scheme rebuilt from another scheme's reported
// profile resolves to the identical configuration.
func TestProfileRoundTrip(t *testing.T) {
	for _, opts := range [][]Option{
		nil,
		{Fast()},
		{Reference()},
		{ConstantTime()},
		{WithEngine("barrett"), WithSampler("cdt")},
	} {
		a := NewDeterministic(P1(), 7, opts...)
		b := NewDeterministic(P1(), 7, WithProfile(a.Profile()))
		if a.Profile() != b.Profile() {
			t.Errorf("round trip changed profile: %+v → %+v", a.Profile(), b.Profile())
		}
	}
}

// The ConstantTime profile interoperates bit for bit with Reference
// material: ciphertexts produced under either profile decrypt identically
// under the other (the KAT-compatibility requirement — profiles change
// instruction traces and randomness spending, never the cryptosystem).
func TestConstantTimeProfileInterop(t *testing.T) {
	p := P1()
	ref := NewDeterministic(p, 11, Reference())
	ct := NewDeterministic(p, 12, ConstantTime())

	pub, priv, err := ref.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, p.MessageSize())
	for i := range msg {
		msg[i] = byte(i*13 + 1)
	}

	// ConstantTime encrypts to a Reference key; both schemes decrypt.
	c1, err := ct.Encrypt(pub, msg)
	if err != nil {
		t.Fatal(err)
	}
	fromCT, err := ct.Decrypt(priv, c1)
	if err != nil {
		t.Fatal(err)
	}
	fromRef, err := ref.Decrypt(priv, c1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromCT, fromRef) {
		t.Error("constant-time and reference decoders disagree on the same ciphertext")
	}
	if !bytes.Equal(fromCT, msg) {
		t.Error("constant-time ciphertext did not round-trip under the reference key (seed-dependent LPR failure? pick another seed)")
	}

	// Reference encrypts; the ConstantTime scheme decrypts identically.
	c2, err := ref.Encrypt(pub, msg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ref.Decrypt(priv, c2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ct.Decrypt(priv, c2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("decoders disagree on a reference ciphertext")
	}
}

// The ConstantTime profile's workspace paths stay at zero steady-state
// allocations like every other profile (the CI allocation gate runs
// -run ZeroAlloc).
func TestConstantTimeZeroAlloc(t *testing.T) {
	p := P1()
	s := NewDeterministic(p, 13, ConstantTime())
	pub, priv, err := s.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	ws := s.NewWorkspace()
	msg := make([]byte, p.MessageSize())
	out := make([]byte, p.MessageSize())
	ct := NewCiphertext(p)
	if err := ws.EncryptInto(ct, pub, msg); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := ws.EncryptInto(ct, pub, msg); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("constant-time EncryptInto allocates %v objects/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := ws.DecryptInto(out, priv, ct); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("constant-time DecryptInto allocates %v objects/op, want 0", n)
	}
}

// countingReader yields a deterministic byte stream, standing in for a
// caller-supplied DRBG behind WithRandom.
type countingReader struct{ state uint64 }

func (r *countingReader) Read(p []byte) (int, error) {
	for i := range p {
		// splitmix64 step, one byte per output.
		r.state += 0x9E3779B97F4A7C15
		z := r.state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		p[i] = byte(z ^ (z >> 31))
	}
	return len(p), nil
}

// WithRandom drives every draw through the supplied reader: two schemes
// over identical streams generate identical keys, and the keys work.
func TestWithRandom(t *testing.T) {
	p := P1()
	s1 := New(p, WithRandom(&countingReader{state: 42}))
	s2 := New(p, WithRandom(&countingReader{state: 42}))

	pk1, sk1, err := s1.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	pk2, _, err := s2.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pk1.Bytes(), pk2.Bytes()) {
		t.Fatal("identical WithRandom streams produced different keys — the reader is not driving the randomness")
	}
	msg := make([]byte, p.MessageSize())
	copy(msg, "entropy via io.Reader")
	ct, err := s1.Encrypt(pk1, msg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s1.Decrypt(sk1, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Log("decryption failure (within LPR failure rate)")
	}
}
