package ringlwe

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// Known-answer tests: the full pipeline — deterministic randomness →
// sampler → NTT → scheme → serialization — is pinned by digests. Any
// change to the bit-pool semantics, the Knuth-Yao tables, the transform
// twiddles or the wire format shows up here immediately. The decrypted
// digest also re-asserts that these specific seeds decrypt correctly
// (message bytes are i·7 mod 256). Rows cover every shipped set: the
// paper's P1 and P2, the aggregation-tuned A1, and B1's three residue
// channels with the CRT decoder.
var katVectors = []struct {
	params                 string
	seed                   uint64
	pkHash, skHash, ctHash string
	decHash                string
}{
	{"P1", 1, "d88058080a127962", "3268eff174cb4d9d", "3432d17624587b88", "2dfd602a7a260b7a"},
	{"P1", 42, "bf525be753f158a9", "7299b6884eda560b", "772fe423e1342f6a", "2dfd602a7a260b7a"},
	{"P1", 31337, "670b9e669f3ff7cd", "b900cd0025a60737", "46b770f72396bd1f", "2dfd602a7a260b7a"},
	{"P2", 1, "12e20cb411a3d681", "886d8fef24a3f5ac", "4d378573ae578b46", "d8bc63b4fc1156e5"},
	{"P2", 42, "f3078894d840fd1d", "a557a00f39dd6559", "f11559e0db9bfc46", "d8bc63b4fc1156e5"},
	{"P2", 31337, "7a793f435603326b", "2cf8262c385a63b5", "17b90d513879f47d", "d8bc63b4fc1156e5"},
	{"A1", 1, "de8c54d1b8947ee4", "df35285f4d4c96f6", "6b53ff6c274e7cc8", "2dfd602a7a260b7a"},
	{"A1", 42, "9acb7dbc6064cf44", "5c74ff5dc2cbdabf", "e0309585cdd252bd", "2dfd602a7a260b7a"},
	{"A1", 31337, "ebf4fffd2156c448", "fec209826c60b65a", "4530b2249b84062a", "2dfd602a7a260b7a"},
	{"B1", 1, "5f09b145ff22eb3c", "32ebe6b116a3a9d1", "10b336ec1d3dc6c9", "54c9eb041badfd70"},
	{"B1", 42, "0010946d0327b9bc", "d45434f377cbd467", "c20086f8d3240c6a", "54c9eb041badfd70"},
	{"B1", 31337, "c14aa2e8a2dc8832", "ed1efb4c9f4af37f", "118257ff2ac7bd56", "54c9eb041badfd70"},
}

func digest8(b []byte) string {
	d := sha256.Sum256(b)
	return hex.EncodeToString(d[:8])
}

func TestKnownAnswerVectors(t *testing.T) {
	params := map[string]*Params{"P1": P1(), "P2": P2(), "A1": A1(), "B1": B1()}
	for _, v := range katVectors {
		p := params[v.params]
		s := NewDeterministic(p, v.seed)
		pk, sk, err := s.GenerateKeys()
		if err != nil {
			t.Fatal(err)
		}
		msg := make([]byte, p.MessageSize())
		for i := range msg {
			msg[i] = byte(i * 7)
		}
		ct, err := s.Encrypt(pk, msg)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := sk.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dec, msg) {
			t.Errorf("%s seed %d: KAT message no longer decrypts cleanly", v.params, v.seed)
		}
		checks := []struct{ name, got, want string }{
			{"public key", digest8(pk.Bytes()), v.pkHash},
			{"private key", digest8(sk.Bytes()), v.skHash},
			{"ciphertext", digest8(ct.Bytes()), v.ctHash},
			{"plaintext", digest8(dec), v.decHash},
		}
		for _, c := range checks {
			if c.got != c.want {
				t.Errorf("%s seed %d: %s digest %s, want %s — the deterministic pipeline changed",
					v.params, v.seed, c.name, c.got, c.want)
			}
		}
	}
}

// CCA known-answer rows: GenerateCCAKeys → EncapsulateCCA → DecapsulateCCA
// on a deterministic scheme, pinned by the public key, the blob and the
// shared key. The next digest is a second encapsulation drawn after the
// decapsulation, so the row also pins that decapsulation spends none of the
// scheme's stream. The constant-time rows run the same flow under
// ConstantTime(), whose cdt sampler spends the stream differently (seed 6:
// under that profile seed 5's encapsulation is one of the ≈0.8% intrinsic
// decryption failures, which FO turns into implicit rejection).
var ccaKATVectors = []struct {
	params                         string
	seed                           uint64
	constantTime                   bool
	pkHash, blobHash, keyHash, nxt string
}{
	{"P1", 5, false, "0d55f2133067a8d8", "de65d4700b2a92c4", "5c5304893416e0d4", "80e24a95c201afe8"},
	{"P2", 5, false, "5d8cfea9baf9085b", "4460470155d212a6", "70e2dd317900978b", "a7b68ba24cb09c8d"},
	{"A1", 5, false, "71630a4523e0328e", "409945cfd274a2d3", "beb901a43f791d3c", "9aec036a2830b02c"},
	{"B1", 5, false, "1fb406f2ca15f35a", "9041b540bd8db92c", "fce002454578b45c", "6ef3aaff3102a2f3"},
	{"P1", 6, true, "7314a65b16d76807", "990329a0ab0a872c", "dfe8a0ed6905b8cc", "bca5055a3e5420b4"},
	{"B1", 6, true, "eaf4f5912c7e3425", "b5cde23af6f1b3dc", "67b3104fff42da60", "e267af7ed9cd3b20"},
}

func TestKnownAnswerCCA(t *testing.T) {
	params := map[string]*Params{"P1": P1(), "P2": P2(), "A1": A1(), "B1": B1()}
	for _, v := range ccaKATVectors {
		var opts []Option
		if v.constantTime {
			opts = append(opts, ConstantTime())
		}
		s := NewDeterministic(params[v.params], v.seed, opts...)
		kp, err := s.GenerateCCAKeys()
		if err != nil {
			t.Fatal(err)
		}
		blob, key, err := s.EncapsulateCCA(kp.Public)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.DecapsulateCCA(kp, blob)
		if err != nil {
			t.Fatal(err)
		}
		if got != key {
			t.Errorf("%s seed %d (constant time %v): decapsulated key differs from the encapsulated one", v.params, v.seed, v.constantTime)
		}
		next, _, err := s.EncapsulateCCA(kp.Public)
		if err != nil {
			t.Fatal(err)
		}
		checks := []struct{ name, got, want string }{
			{"public key", digest8(kp.Public.Bytes()), v.pkHash},
			{"blob", digest8(blob), v.blobHash},
			{"key", digest8(key[:]), v.keyHash},
			{"next blob", digest8(next), v.nxt},
		}
		for _, c := range checks {
			if c.got != c.want {
				t.Errorf("%s seed %d (constant time %v): CCA %s digest %s, want %s — the deterministic pipeline changed",
					v.params, v.seed, v.constantTime, c.name, c.got, c.want)
			}
		}
	}
}
