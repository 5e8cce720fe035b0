package ringlwe

import (
	"crypto/sha256"
	"crypto/subtle"

	"ringlwe/internal/core"
	"ringlwe/internal/rng"
)

// CCA-secure key encapsulation via the Fujisaki-Okamoto transform (the
// construction NewHope-CCA and Kyber later standardized on top of
// LPR-style encryption). The base scheme from the paper is only CPA
// secure — an active attacker who can submit ciphertexts and observe
// decryption behaviour can mount reaction attacks. FO closes this:
//
//	Encapsulate: m ← random; coins = G(pkDigest ‖ m);
//	             c = Encrypt(pk, m; coins); K = H(m ‖ H(c))
//	Decapsulate: m' = Decrypt(sk, c); coins' = G(pkDigest ‖ m');
//	             re-encrypt and compare: c' == c → K = H(m' ‖ H(c)),
//	             else K = H(z ‖ H(c))  (implicit rejection with the
//	             keypair secret z)
//
// Implicit rejection means tampering never produces an error channel —
// both sides just end up with unrelated keys and the session's AEAD fails.
// Note that the scheme's intrinsic decryption-failure rate (≈0.8% per
// encapsulation at P1) also lands in implicit rejection here; protocols
// that want explicit, retryable failure detection should use the
// CPA KEM with confirmation tag (Encapsulate/Decapsulate) instead, as
// internal/protocol does.

// CCAKeyPair augments a key pair with the FO decapsulation material: the
// public key (needed for re-encryption) and the implicit-rejection secret.
type CCAKeyPair struct {
	Public  *PublicKey
	Private *PrivateKey
	// z is the implicit-rejection secret, drawn at key generation.
	z [32]byte
	// pkDigest caches H(pk) for coin derivation.
	pkDigest [32]byte
}

// GenerateCCAKeys creates a key pair together with the FO secrets.
func (s *Scheme) GenerateCCAKeys() (*CCAKeyPair, error) {
	pk, sk, err := s.GenerateKeys()
	if err != nil {
		return nil, err
	}
	kp := &CCAKeyPair{Public: pk, Private: sk}
	s.fillRandom(kp.z[:])
	kp.pkDigest = sha256.Sum256(pk.Bytes())
	return kp, nil
}

// deriveCoins expands the FO coins for message m under the given public
// key digest.
func deriveCoins(pkDigest [32]byte, m []byte) []byte {
	h := sha256.New()
	h.Write([]byte("ringlwe-fo-v1 coins"))
	h.Write(pkDigest[:])
	h.Write(m)
	return h.Sum(nil)
}

// encryptDerand encrypts m under pk with coins-derived randomness; the
// same (pk, m) always yields the same ciphertext. It runs on the scheme's
// NTT engine, which never changes the result, and always samples
// with knuth-yao: both FO sides must draw the same error polynomials from
// the coins, whatever their profile or sampler.Default.
func (s *Scheme) encryptDerand(pk *PublicKey, m, coins []byte) (*Ciphertext, error) {
	enc, err := core.NewWithOptions(s.params.inner, rng.NewHashDRBG(coins), core.Options{
		Engine:  s.inner.Engine(),
		Sampler: "knuth-yao",
	})
	if err != nil {
		return nil, err
	}
	ct, err := enc.Encrypt(pk.inner, m)
	if err != nil {
		return nil, err
	}
	return &Ciphertext{params: s.params, inner: ct}, nil
}

func ccaKey(label string, secret, ctDigest []byte) [SharedKeySize]byte {
	h := sha256.New()
	h.Write([]byte("ringlwe-fo-v1 " + label))
	h.Write(secret)
	h.Write(ctDigest)
	var out [SharedKeySize]byte
	copy(out[:], h.Sum(nil))
	return out
}

// EncapsulateCCA transports a fresh session key to the key pair's public
// key under the FO transform. The blob is exactly one ciphertext.
func (s *Scheme) EncapsulateCCA(pk *PublicKey) ([]byte, [SharedKeySize]byte, error) {
	var zero [SharedKeySize]byte
	if pk.params.inner != s.params.inner {
		return nil, zero, paramsMismatch("public key")
	}
	m := make([]byte, s.params.MessageSize())
	s.fillRandom(m)
	pkDigest := sha256.Sum256(pk.Bytes())
	ct, err := s.encryptDerand(pk, m, deriveCoins(pkDigest, m))
	if err != nil {
		return nil, zero, err
	}
	blob := ct.Bytes()
	ctDigest := sha256.Sum256(blob)
	return blob, ccaKey("key", m, ctDigest[:]), nil
}

// DecapsulateCCA recovers the session key. It never returns a
// tamper-detection error: invalid ciphertexts yield an unpredictable key
// (implicit rejection), which is the property the FO proof needs. Only
// malformed blobs (wrong size/range) error out.
func (s *Scheme) DecapsulateCCA(kp *CCAKeyPair, blob []byte) ([SharedKeySize]byte, error) {
	var zero [SharedKeySize]byte
	if kp.Public.params.inner != s.params.inner {
		return zero, paramsMismatch("key pair")
	}
	ct, err := ParseCiphertext(s.params, blob)
	if err != nil {
		return zero, err
	}
	m := make([]byte, s.params.MessageSize())
	if err := s.inner.DecryptInto(m, kp.Private.inner, ct.inner); err != nil {
		return zero, err
	}
	reEnc, err := s.encryptDerand(kp.Public, m, deriveCoins(kp.pkDigest, m))
	if err != nil {
		return zero, err
	}
	ctDigest := sha256.Sum256(blob)
	ok := subtle.ConstantTimeCompare(reEnc.Bytes(), blob)
	if ok == 1 {
		return ccaKey("key", m, ctDigest[:]), nil
	}
	return ccaKey("reject", kp.z[:], ctDigest[:]), nil
}
