package core

import (
	"bytes"
	"errors"
	"math/big"
	"reflect"
	"testing"

	"ringlwe/internal/ntt"
	"ringlwe/internal/rng"
)

func testRNSScheme(t testing.TB) *Scheme {
	t.Helper()
	s, err := New(B1(), rng.NewXorshift128(7))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestB1Params pins the headline properties of the big-parameter set: ≥2
// residue channels, a ≥60-bit composite modulus, and an additive budget in
// the thousands.
func TestB1Params(t *testing.T) {
	p := B1()
	if !p.IsRNS() {
		t.Fatal("B1 is not RNS")
	}
	if p.K() < 2 {
		t.Fatalf("K = %d, want ≥ 2", p.K())
	}
	if p.Basis.QBits < 60 {
		t.Fatalf("QBits = %d, want ≥ 60", p.Basis.QBits)
	}
	if p.MaxAddends() < 1000 {
		t.Fatalf("MaxAddends = %d, want ≥ 1000", p.MaxAddends())
	}
	// Every channel admits the vector engine (4q ≤ 2³¹), so auto
	// resolution never downgrades a channel.
	for i, m := range p.Basis.Mods {
		if !m.VectorSafe() {
			t.Errorf("channel %d (q=%d) not vector-safe", i, p.Basis.Moduli[i])
		}
	}
	wantPoly := 0
	for i := range p.Basis.Moduli {
		wantPoly += (p.N*int(p.Basis.Mods[i].BitLen()) + 7) / 8
	}
	if p.PolyBytes() != wantPoly {
		t.Errorf("PolyBytes = %d, want %d", p.PolyBytes(), wantPoly)
	}
}

// TestOneChannelBases pins the single ring path: the paper sets and A1
// are one-channel bases whose Q/Mod/Tables are views of channel 0, B1
// leaves those views empty, every workspace runs on its scheme's one
// Runner, and schemes over one basis share its cached engines.
func TestOneChannelBases(t *testing.T) {
	for _, p := range []*Params{P1(), P2(), A1()} {
		b := p.Basis
		if p.K() != 1 || p.IsRNS() {
			t.Fatalf("%s: K = %d, IsRNS = %v, want one channel", p.Name, p.K(), p.IsRNS())
		}
		if p.Q != b.Moduli[0] || p.Mod != b.Mods[0] || p.Tables != b.Tables[0] {
			t.Errorf("%s: Q/Mod/Tables are not views of channel 0", p.Name)
		}
		if p.PolyBytes() != p.rowBytes(0) || p.CoeffBits() != p.Mod.BitLen() {
			t.Errorf("%s: one-row layout differs from the channel's packing", p.Name)
		}
	}
	if p := B1(); p.Q != 0 || p.Mod != nil || p.Tables != nil {
		t.Errorf("B1: Q/Mod/Tables = %d/%v/%v, want empty views", p.Q, p.Mod, p.Tables)
	}
	for _, p := range []*Params{P1(), B1()} {
		s1, err := New(p, rng.NewXorshift128(1))
		if err != nil {
			t.Fatal(err)
		}
		s2, err := New(p, rng.NewXorshift128(2))
		if err != nil {
			t.Fatal(err)
		}
		if len(s1.runner.Engines()) != p.K() {
			t.Errorf("%s: scheme Runner has %d channels, want %d", p.Name, len(s1.runner.Engines()), p.K())
		}
		for i, e := range s1.runner.Engines() {
			if e != s2.runner.Engines()[i] {
				t.Errorf("%s channel %d: schemes over one basis hold different engines", p.Name, i)
			}
		}
		// Workspaces reach the Runner only through their scheme, so the
		// default and forked ones both run on s1.runner.
		w, err := s1.NewWorkspace()
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []*Workspace{s1.def, w} {
			if w.scheme != s1 {
				t.Errorf("%s: a workspace is bound to another scheme's Runner", p.Name)
			}
		}
	}
	wt := reflect.TypeOf(Workspace{})
	for i := 0; i < wt.NumField(); i++ {
		if f := wt.Field(i); f.Type == reflect.TypeOf((*ntt.Runner)(nil)) {
			t.Errorf("Workspace field %s holds a Runner of its own", f.Name)
		}
	}
}

// TestB1EndToEnd drives keygen → encrypt → decrypt over B1, then checks
// that a decrypted ciphertext's pre-decode polynomial CRT-reconstructs to
// m̄ + small noise against a math/big oracle: each coefficient must lie
// within the q/4 decode band of its encoded value.
func TestB1EndToEnd(t *testing.T) {
	s := testRNSScheme(t)
	p := s.Params
	pk, sk, err := s.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, p.MessageBytes())
	for i := range msg {
		msg[i] = byte(i*37 + 11)
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
		t.Fatal("decrypt mismatch")
	}

	// Oracle check on the pre-decode polynomial: reconstruct each
	// coefficient with math/big and verify |c − bit·⌊q/2⌋| < q/4 (mod q).
	m := prePoly(s, sk, ct)
	b := p.Basis
	q := b.QBig
	quarter := new(big.Int).Rsh(q, 2)
	half := new(big.Int).Rsh(q, 1)
	for j := 0; j < p.N; j++ {
		c := b.CoeffBig(m, j)
		bit := msg[j/8] >> (j % 8) & 1
		want := new(big.Int)
		if bit == 1 {
			want.Set(half)
		}
		diff := new(big.Int).Sub(c, want)
		diff.Mod(diff, q)
		// fold to the symmetric representative
		if diff.Cmp(half) > 0 {
			diff.Sub(q, diff)
		}
		if diff.Cmp(quarter) >= 0 {
			t.Fatalf("coeff %d: noise %v ≥ q/4", j, diff)
		}
	}
}

// TestB1Aggregate folds hundreds of fresh encryptions into one aggregate —
// far past A1's 26-addend budget — and checks the sum decodes to the XOR
// of the messages.
func TestB1Aggregate(t *testing.T) {
	s := testRNSScheme(t)
	p := s.Params
	pk, sk, err := s.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	const addends = 300
	want := make([]byte, p.MessageBytes())
	acc := NewCiphertext(p)
	acc.Zero()
	msg := make([]byte, p.MessageBytes())
	for i := 0; i < addends; i++ {
		for j := range msg {
			msg[j] = byte(i*31 + j*7 + 3)
			want[j] ^= msg[j]
		}
		ct, err := s.Encrypt(pk, msg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.EvalAddInto(acc, acc, ct); err != nil {
			t.Fatalf("addend %d: %v", i, err)
		}
	}
	if acc.Addends != addends {
		t.Fatalf("Addends = %d, want %d", acc.Addends, addends)
	}
	got, err := sk.Decrypt(acc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("aggregate decrypt mismatch")
	}
}

// TestB1EvalScalarMul checks homomorphic scalar multiplication by an odd
// scalar (odd k preserve the bit encoding) against plaintext expectation.
func TestB1EvalScalarMul(t *testing.T) {
	s := testRNSScheme(t)
	p := s.Params
	pk, sk, err := s.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, p.MessageBytes())
	for i := range msg {
		msg[i] = byte(i * 13)
	}
	ct, err := s.Encrypt(pk, msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EvalScalarMulInto(ct, ct, 5); err != nil {
		t.Fatal(err)
	}
	got, err := sk.Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("odd scalar did not preserve message")
	}
	if ct.Addends != 25 {
		t.Fatalf("Addends = %d, want 25", ct.Addends)
	}
}

// TestB1Serialization round-trips keys and ciphertexts through the legacy
// tagged format, the bare bodies, and the streaming I/O, checking
// bit-identical re-serialization and per-row range rejection.
func TestB1Serialization(t *testing.T) {
	s := testRNSScheme(t)
	p := s.Params
	pk, sk, err := s.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, p.MessageBytes())
	msg[0] = 0xA5
	ct, err := s.Encrypt(pk, msg)
	if err != nil {
		t.Fatal(err)
	}

	pkBlob := pk.Bytes()
	pk2, err := ParsePublicKey(p, pkBlob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pk2.Bytes(), pkBlob) {
		t.Fatal("public key re-serialization differs")
	}
	skBlob := sk.Bytes()
	sk2, err := ParsePrivateKey(p, skBlob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sk2.Bytes(), skBlob) {
		t.Fatal("private key re-serialization differs")
	}
	ctBlob := ct.Bytes()
	ct2, err := ParseCiphertext(p, ctBlob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ct2.Bytes(), ctBlob) {
		t.Fatal("ciphertext re-serialization differs")
	}
	got, err := sk2.Decrypt(ct2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("parsed keys/ciphertext do not decrypt")
	}

	// Per-row anti-smuggling: an out-of-range residue in the LAST channel
	// row must be rejected (its width gives headroom above q₃).
	bad := append([]byte(nil), ctBlob...)
	// Set the final coefficient's bits to all-ones within its row width.
	tail := bad[len(bad)-4:]
	for i := range tail {
		tail[i] = 0xFF
	}
	if _, err := ParseCiphertext(p, bad); err == nil {
		t.Fatal("oversized residue accepted")
	}
}

// TestB1ZeroAlloc pins the RNS hot paths at zero steady-state allocations:
// workspace encrypt, decrypt and homomorphic addition over k residue rows
// must reuse the flat k·n buffers exactly like the single-modulus paths.
func TestB1ZeroAlloc(t *testing.T) {
	s := testRNSScheme(t)
	p := s.Params
	pk, sk, err := s.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	ws, err := s.NewWorkspace()
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, p.MessageBytes())
	for i := range msg {
		msg[i] = byte(3 * i)
	}
	ct := NewCiphertext(p)
	acc := NewCiphertext(p)
	acc.Zero()
	out := make([]byte, p.MessageBytes())

	if n := testing.AllocsPerRun(50, func() {
		if err := ws.EncryptInto(ct, pk, msg); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("RNS EncryptInto allocates %v times per op, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		if err := ws.DecryptInto(out, sk, ct); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("RNS DecryptInto allocates %v times per op, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		acc.Zero()
		if err := s.EvalAddInto(acc, acc, ct); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("RNS EvalAddInto allocates %v times per op, want 0", n)
	}
}

// TestB1ConcurrentSharedScheme shares one RNS scheme across 8 goroutines —
// each with its own workspace — exercising the shared engine state,
// the channel runner and the eval ops under the race detector.
func TestB1ConcurrentSharedScheme(t *testing.T) {
	s := testRNSScheme(t)
	p := s.Params
	pk, sk, err := s.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			errs <- func() error {
				w, err := s.NewWorkspace()
				if err != nil {
					return err
				}
				msg := make([]byte, p.MessageBytes())
				for i := range msg {
					msg[i] = byte(g*41 + i)
				}
				ct := NewCiphertext(p)
				acc := NewCiphertext(p)
				acc.Zero()
				out := make([]byte, p.MessageBytes())
				for iter := 0; iter < 10; iter++ {
					if err := w.EncryptInto(ct, pk, msg); err != nil {
						return err
					}
					if err := w.DecryptInto(out, sk, ct); err != nil {
						return err
					}
					if !bytes.Equal(out, msg) {
						return errDecryptMismatch
					}
					if err := s.EvalAddInto(acc, acc, ct); err != nil {
						return err
					}
				}
				if err := w.DecryptInto(out, sk, acc); err != nil {
					return err
				}
				// 10 identical addends: even count, XOR cancels to zero.
				for _, b := range out {
					if b != 0 {
						return errDecryptMismatch
					}
				}
				return nil
			}()
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

var errDecryptMismatch = errors.New("concurrent decrypt mismatch")

// TestB1ConstantTimeProfile runs B1 end to end on the backends of the
// public ConstantTime profile: the portable vector kernels (B1's 29-bit
// channels are beyond the AVX2 gate) and the cdt sampler.
func TestB1ConstantTimeProfile(t *testing.T) {
	s, err := NewWithOptions(B1(), rng.NewXorshift128(9), Options{Engine: "vector", Sampler: "cdt"})
	if err != nil {
		t.Fatal(err)
	}
	pk, sk, err := s.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, s.Params.MessageBytes())
	for i := range msg {
		msg[i] = byte(255 - i)
	}
	ct, err := s.Encrypt(pk, msg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := s.NewWorkspace()
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, s.Params.MessageBytes())
	if err := w.DecryptInto(got, sk, ct); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("constant-time profile decrypt mismatch")
	}
}
