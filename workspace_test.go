package ringlwe

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestWorkspaceEncryptDecryptRoundTrip(t *testing.T) {
	for _, p := range []*Params{P1(), P2()} {
		s := NewDeterministic(p, 1)
		pk, sk, err := s.GenerateKeys()
		if err != nil {
			t.Fatal(err)
		}
		ws := s.NewWorkspace()
		msg := make([]byte, p.MessageSize())
		for i := range msg {
			msg[i] = byte(i*5 + 1)
		}
		ct := NewCiphertext(p)
		out := make([]byte, p.MessageSize())
		for trial := 0; trial < 10; trial++ {
			if err := ws.EncryptInto(ct, pk, msg); err != nil {
				t.Fatal(err)
			}
			if err := ws.DecryptInto(out, sk, ct); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, msg) {
				// The LPR scheme has a small intrinsic failure rate; a
				// couple of flipped bits in a run is within spec, more
				// means a real bug.
				diff := 0
				for i := range out {
					for b := 0; b < 8; b++ {
						if (out[i]^msg[i])>>b&1 == 1 {
							diff++
						}
					}
				}
				if diff > 2 {
					t.Fatalf("%s trial %d: %d bit errors", p.Name(), trial, diff)
				}
				t.Logf("%s trial %d: %d-bit intrinsic decryption failure", p.Name(), trial, diff)
			}
		}
	}
}

// TestWorkspaceEncryptZeroAlloc pins the tentpole: steady-state workspace
// encryption performs no heap allocation.
func TestWorkspaceEncryptZeroAlloc(t *testing.T) {
	p := P1()
	s := NewDeterministic(p, 2)
	pk, sk, err := s.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	ws := s.NewWorkspace()
	msg := make([]byte, p.MessageSize())
	ct := NewCiphertext(p)
	out := make([]byte, p.MessageSize())

	if n := testing.AllocsPerRun(100, func() {
		if err := ws.EncryptInto(ct, pk, msg); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("workspace EncryptInto: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := ws.DecryptInto(out, sk, ct); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("workspace DecryptInto: %v allocs/op, want 0", n)
	}
}

// TestWorkspaceKEMZeroAlloc pins the KEM hot path: Decapsulate allocates
// nothing and Encapsulate allocates only the blob it returns, on a seeded
// scheme and on the production configuration (New: OS-random AES-CTR
// keystream, wide-ky sampler).
func TestWorkspaceKEMZeroAlloc(t *testing.T) {
	for _, p := range []*Params{P1(), P2()} {
		seeded := NewDeterministic(p, 2)
		pk, sk, err := seeded.GenerateKeys()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			ctor string
			s    *Scheme
		}{{"NewDeterministic", seeded}, {"New", New(p)}} {
			ws := c.s.NewWorkspace()
			blob, _, err := ws.Encapsulate(pk)
			if err != nil {
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(100, func() {
				if _, _, err := ws.Encapsulate(pk); err != nil {
					t.Fatal(err)
				}
			}); n != 1 {
				t.Errorf("%s %s workspace Encapsulate: %v allocs/op, want 1", c.ctor, p.Name(), n)
			}
			if n := testing.AllocsPerRun(100, func() {
				if _, err := ws.Decapsulate(sk, blob); err != nil && !errors.Is(err, ErrDecapsulation) {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("%s %s workspace Decapsulate: %v allocs/op, want 0", c.ctor, p.Name(), n)
			}
		}
	}
}

// TestNewWorkspacesKeyedIndependently checks that the workspaces of one
// OS-random scheme, and its one-shot path, draw from independently keyed
// streams: two sources keyed alike would produce the same first
// encapsulation.
func TestNewWorkspacesKeyedIndependently(t *testing.T) {
	p := P1()
	pk, _, err := NewDeterministic(p, 3).GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	s := New(p)
	seen := map[string]string{}
	for name, encap := range map[string]func(*PublicKey) (EncapsulatedKey, [SharedKeySize]byte, error){
		"one-shot":    s.Encapsulate,
		"workspace 1": s.NewWorkspace().Encapsulate,
		"workspace 2": s.NewWorkspace().Encapsulate,
	} {
		blob, _, err := encap(pk)
		if err != nil {
			t.Fatal(err)
		}
		if other, dup := seen[string(blob)]; dup {
			t.Fatalf("%s and %s drew the same stream", name, other)
		}
		seen[string(blob)] = name
	}
}

// The KEM key and tag are SHA-256 over label ‖ seed, whether the seed fits
// the stack buffer or not.
func TestKEMHashMatchesStreamingSHA256(t *testing.T) {
	for _, n := range []int{0, 32, 64, 128, 256, 257, 1024} {
		seed := make([]byte, n)
		for i := range seed {
			seed[i] = byte(i*7 + n)
		}
		for label, got := range map[string][]byte{
			"ringlwe-kem-v1 key":     func() []byte { k := kemKey(seed); return k[:] }(),
			"ringlwe-kem-v1 confirm": func() []byte { k := kemTag(seed); return k[:] }(),
		} {
			h := sha256.New()
			h.Write([]byte(label))
			h.Write(seed)
			if want := h.Sum(nil)[:len(got)]; !bytes.Equal(got, want) {
				t.Errorf("%q over a %d-byte seed: %x, want %x", label, n, got, want)
			}
		}
	}
}

// TestWorkspaceEngineZeroAlloc pins the steady-state encrypt/decrypt path
// at zero allocations under every NTT backend — in particular the vector
// engine's lane-block kernels, and the default pairing of them with the
// wide sampler (Fast).
func TestWorkspaceEngineZeroAlloc(t *testing.T) {
	p := P1()
	msg := make([]byte, p.MessageSize())
	out := make([]byte, p.MessageSize())
	configs := [][]Option{{Fast()}}
	for _, name := range Engines() {
		configs = append(configs, []Option{WithEngine(name)})
	}
	for i, opts := range configs {
		s := NewDeterministic(p, uint64(80+i), opts...)
		label := s.Profile().Engine + "+" + s.Profile().Sampler
		pk, sk, err := s.GenerateKeys()
		if err != nil {
			t.Fatal(err)
		}
		ws := s.NewWorkspace()
		ct := NewCiphertext(p)
		if err := ws.EncryptInto(ct, pk, msg); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			if err := ws.EncryptInto(ct, pk, msg); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: EncryptInto allocates %.1f/op, want 0", label, n)
		}
		if n := testing.AllocsPerRun(100, func() {
			if err := ws.DecryptInto(out, sk, ct); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: DecryptInto allocates %.1f/op, want 0", label, n)
		}
	}
}

// TestWorkspaceKEMInterop checks the workspace KEM against the legacy
// one-shot KEM in both directions.
func TestWorkspaceKEMInterop(t *testing.T) {
	p := P1()
	s := NewDeterministic(p, 3)
	pk, sk, err := s.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	ws := s.NewWorkspace()

	// Workspace encapsulates, legacy decapsulates.
	blob, key1, err := ws.Encapsulate(pk)
	if err != nil {
		t.Fatal(err)
	}
	key2, err := s.Decapsulate(sk, blob)
	if err != nil {
		if errors.Is(err, ErrDecapsulation) {
			t.Skip("intrinsic LPR decryption failure on this seed")
		}
		t.Fatal(err)
	}
	if key1 != key2 {
		t.Fatal("workspace→legacy KEM keys differ")
	}

	// Legacy encapsulates, workspace decapsulates.
	blob2, key3, err := s.Encapsulate(pk)
	if err != nil {
		t.Fatal(err)
	}
	key4, err := ws.Decapsulate(sk, blob2)
	if err != nil {
		if errors.Is(err, ErrDecapsulation) {
			t.Skip("intrinsic LPR decryption failure on this seed")
		}
		t.Fatal(err)
	}
	if key3 != key4 {
		t.Fatal("legacy→workspace KEM keys differ")
	}

	// Tampering must be detected.
	blob[len(blob)-1] ^= 1
	if _, err := ws.Decapsulate(sk, blob); !errors.Is(err, ErrDecapsulation) {
		t.Fatalf("tampered blob: err = %v, want ErrDecapsulation", err)
	}
}

// TestBatchEncryptDecrypt round-trips batches through EncryptBatch and
// DecryptBatch on a deterministic and an OS-random scheme, and checks
// that one malformed message fails the whole batch.
func TestBatchEncryptDecrypt(t *testing.T) {
	p := P1()
	cases := []struct {
		name   string
		scheme *Scheme
		n      int
		bad    int // index of a message one byte too long, or -1
	}{
		{"deterministic", NewDeterministic(p, 4), 48, -1},
		{"round-trip", New(p), 37, -1},
		{"propagates-errors", New(p), 2, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.scheme
			pk, sk, err := s.GenerateKeys()
			if err != nil {
				t.Fatal(err)
			}
			msgs := make([][]byte, tc.n)
			for i := range msgs {
				msgs[i] = make([]byte, p.MessageSize())
				for j := range msgs[i] {
					msgs[i][j] = byte(i + j)
				}
			}
			if tc.bad >= 0 {
				msgs[tc.bad] = make([]byte, p.MessageSize()+1)
				if _, err := s.EncryptBatch(pk, msgs); err == nil {
					t.Fatal("batch with an oversized message reported no error")
				}
				return
			}
			cts, err := s.EncryptBatch(pk, msgs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.DecryptBatch(sk, cts)
			if err != nil {
				t.Fatal(err)
			}
			failed := 0
			for i := range msgs {
				if !bytes.Equal(got[i], msgs[i]) {
					failed++
				}
			}
			if failed > 4 { // intrinsic LPR failure tolerance (≈0.8%/msg expected)
				t.Fatalf("%d/%d batch round trips failed", failed, tc.n)
			}
		})
	}
}

func TestBatchKEM(t *testing.T) {
	p := P1()
	s := NewDeterministic(p, 5)
	pk, sk, err := s.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	blobs, keys, err := s.EncapsulateBatch(pk, n)
	if err != nil {
		t.Fatal(err)
	}
	got, errs := s.DecapsulateBatch(sk, blobs)
	ok := 0
	for i := range blobs {
		switch {
		case errs[i] == nil:
			if got[i] != keys[i] {
				t.Fatalf("blob %d: decapsulated key differs", i)
			}
			ok++
		case errors.Is(errs[i], ErrDecapsulation):
			// intrinsic failure — the documented retry case
		default:
			t.Fatalf("blob %d: unexpected error %v", i, errs[i])
		}
	}
	if ok < n/2 {
		t.Fatalf("only %d/%d decapsulations succeeded", ok, n)
	}
}

// TestConcurrentBatchAndDecapsulate is the -race hammer required by the
// refactor: ≥8 goroutines sharing one Scheme, mixing EncryptBatch,
// DecapsulateBatch, explicit workspaces and pooled workspaces, plus a
// stats reader. Run with `go test -race`.
func TestConcurrentBatchAndDecapsulate(t *testing.T) {
	p := P1()
	s := New(p) // OS randomness: the production configuration
	pk, sk, err := s.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	blobs, keys, err := s.EncapsulateBatch(pk, 16)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 10
	const rounds = 5
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 4 {
			case 0: // batch encrypt + decrypt
				msgs := make([][]byte, 8)
				for i := range msgs {
					msgs[i] = make([]byte, p.MessageSize())
					msgs[i][0] = byte(g)
				}
				for r := 0; r < rounds; r++ {
					cts, err := s.EncryptBatch(pk, msgs)
					if err != nil {
						t.Error(err)
						return
					}
					if _, err := s.DecryptBatch(sk, cts); err != nil {
						t.Error(err)
						return
					}
				}
			case 1: // batch decapsulate of the shared blobs
				for r := 0; r < rounds; r++ {
					got, errs := s.DecapsulateBatch(sk, blobs)
					for i := range blobs {
						if errs[i] == nil && got[i] != keys[i] {
							t.Errorf("decapsulated key %d differs", i)
							return
						}
					}
				}
			case 2: // explicit workspace: encrypt/decrypt/decapsulate loop
				ws := s.NewWorkspace()
				ct := NewCiphertext(p)
				msg := make([]byte, p.MessageSize())
				out := make([]byte, p.MessageSize())
				for r := 0; r < rounds*4; r++ {
					if err := ws.EncryptInto(ct, pk, msg); err != nil {
						t.Error(err)
						return
					}
					if err := ws.DecryptInto(out, sk, ct); err != nil {
						t.Error(err)
						return
					}
					if _, err := ws.Decapsulate(sk, blobs[r%len(blobs)]); err != nil &&
						!errors.Is(err, ErrDecapsulation) {
						t.Error(err)
						return
					}
				}
			case 3: // pooled workspace KEM + concurrent stats reads
				for r := 0; r < rounds*2; r++ {
					ws := s.AcquireWorkspace()
					blob, key, err := ws.Encapsulate(pk)
					if err != nil {
						t.Error(err)
						s.ReleaseWorkspace(ws)
						return
					}
					got, err := ws.Decapsulate(sk, blob)
					s.ReleaseWorkspace(ws)
					if err == nil && got != key {
						t.Error("pooled workspace KEM key mismatch")
						return
					}
					_, _, _, _ = s.SamplerStats()
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestLegacyOpsConcurrentWithForking pins that forking holds defMu: the
// one-shot API draws from the base source while other goroutines fork
// workspaces off it (deterministic sources consume parent state when
// forking), which must not race. Run with `go test -race`.
func TestLegacyOpsConcurrentWithForking(t *testing.T) {
	p := P1()
	s := NewDeterministic(p, 8) // deterministic: forking consumes parent state
	pk, _, err := s.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, p.MessageSize())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			ws := s.NewWorkspace()
			ct := NewCiphertext(p)
			if err := ws.EncryptInto(ct, pk, msg); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		if _, err := s.Encrypt(pk, msg); err != nil { // one-shot path, base source
			t.Fatal(err)
		}
	}
	wg.Wait()
}

// TestOneShotConcurrentKEM calls the public one-shot methods — key
// generation, Encrypt, Encapsulate and the FO-transform CCA KEM — from 8
// goroutines on one scheme. Run with `go test -race`. A1's negligible
// intrinsic failure rate makes every mismatch a corruption.
func TestOneShotConcurrentKEM(t *testing.T) {
	p := A1()
	s := NewDeterministic(p, 9)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := oneShotKEMRound(s, p); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

func oneShotKEMRound(s *Scheme, p *Params) error {
	pk, sk, err := s.GenerateKeys()
	if err != nil {
		return err
	}
	msg := make([]byte, p.MessageSize())
	msg[0] = 0x5A
	ct, err := s.Encrypt(pk, msg)
	if err != nil {
		return err
	}
	if got, err := s.Decrypt(sk, ct); err != nil || !bytes.Equal(got, msg) {
		return fmt.Errorf("Encrypt/Decrypt round trip: %v", err)
	}
	blob, key, err := s.Encapsulate(pk)
	if err != nil {
		return err
	}
	if got, err := s.Decapsulate(sk, blob); err != nil || got != key {
		return fmt.Errorf("Encapsulate/Decapsulate round trip: %v", err)
	}
	kp, err := s.GenerateCCAKeys()
	if err != nil {
		return err
	}
	cblob, ckey, err := s.EncapsulateCCA(kp.Public)
	if err != nil {
		return err
	}
	if got, err := s.DecapsulateCCA(kp, cblob); err != nil || got != ckey {
		return fmt.Errorf("CCA round trip: %v", err)
	}
	return nil
}

func TestWorkspaceParameterMismatch(t *testing.T) {
	s1 := NewDeterministic(P1(), 6)
	s2 := NewDeterministic(P2(), 7)
	pk2, sk2, _ := s2.GenerateKeys()
	ws := s1.NewWorkspace()
	if _, err := ws.Encrypt(pk2, make([]byte, P2().MessageSize())); err == nil {
		t.Error("foreign public key accepted")
	}
	if _, _, err := ws.Encapsulate(pk2); err == nil {
		t.Error("foreign public key accepted by Encapsulate")
	}
	if _, err := ws.Decapsulate(sk2, make(EncapsulatedKey, P2().EncapsulationSize())); err == nil {
		t.Error("foreign private key accepted by Decapsulate")
	}
	if _, err := s1.EncryptBatch(pk2, nil); err == nil {
		t.Error("foreign public key accepted by EncryptBatch")
	}
}
