package ringlwe

import (
	"crypto/sha256"
	"crypto/subtle"
	"errors"
	"fmt"

	"ringlwe/internal/core"
)

// Key encapsulation over the encryption scheme. The random session key is
// sent as the plaintext; a confirmation hash rides alongside so the LPR
// failure rate (≈ 0.8% per encapsulation at P1) surfaces as a detectable
// error instead of a corrupted session key. On ErrDecapsulation the sender
// simply encapsulates again — this retry loop is how the hybrid-KEM
// example and a real protocol would use the scheme, and it preserves the
// paper's cryptosystem unchanged rather than grafting an error-correcting
// code onto it.

// SharedKeySize is the size of the encapsulated session key in bytes.
const SharedKeySize = 32

// confirmTagSize is the size of the key-confirmation hash.
const confirmTagSize = 16

// ErrDecapsulation reports that the ciphertext failed to decrypt to a
// confirmed key (wrong key material or an intrinsic LPR decryption
// failure). The encapsulator should retry with a fresh encapsulation.
var ErrDecapsulation = errors.New("ringlwe: decapsulation failed (retry with a fresh encapsulation)")

// EncapsulatedKey is the wire blob produced by Encapsulate:
// ciphertext ‖ confirmation tag.
type EncapsulatedKey []byte

// kemKey derives the session key from the transported seed.
func kemKey(seed []byte) [SharedKeySize]byte {
	return kemHash("ringlwe-kem-v1 key", seed)
}

// kemTag derives the confirmation tag from the transported seed.
func kemTag(seed []byte) [confirmTagSize]byte {
	sum := kemHash("ringlwe-kem-v1 confirm", seed)
	return [confirmTagSize]byte(sum[:confirmTagSize])
}

// kemHash returns SHA-256(label ‖ seed). The input is assembled in a stack
// buffer that holds the seed of every ring up to n = 2048, so the hash
// allocates nothing; a larger seed makes append move it to the heap.
func kemHash(label string, seed []byte) [sha256.Size]byte {
	var buf [32 + 256]byte
	return sha256.Sum256(append(append(buf[:0], label...), seed...))
}

// Encapsulate transports a fresh random session key to pk. It returns the
// wire blob and the derived shared key. Works with both parameter sets:
// the seed fills the whole plaintext (32 bytes at P1, 64 at P2).
func (s *Scheme) Encapsulate(pk *PublicKey) (EncapsulatedKey, [SharedKeySize]byte, error) {
	var zero [SharedKeySize]byte
	seed := make([]byte, s.params.MessageSize())
	s.fillRandom(seed)
	ct, err := s.Encrypt(pk, seed)
	if err != nil {
		return nil, zero, err
	}
	tag := kemTag(seed)
	blob := append(ct.Bytes(), tag[:]...)
	return blob, kemKey(seed), nil
}

// Decapsulate recovers the session key from an encapsulation blob,
// verifying the confirmation tag. It returns ErrDecapsulation when the
// plaintext does not confirm — either wrong key material or an intrinsic
// decryption failure; the peer should encapsulate again. It decrypts
// under the scheme's profile.
func (s *Scheme) Decapsulate(sk *PrivateKey, blob EncapsulatedKey) ([SharedKeySize]byte, error) {
	return decapsulate(s.params, s.inner, sk, blob,
		core.NewCiphertext(s.params.inner), make([]byte, s.params.MessageSize()))
}

// decrypter is the decryption both decapsulation paths share:
// *core.Scheme for the one-shot call, *core.Workspace for the
// allocation-free one.
type decrypter interface {
	DecryptInto(dst []byte, sk *core.PrivateKey, ct *core.Ciphertext) error
}

// decapsulate is the body of Scheme.Decapsulate and Workspace.Decapsulate:
// it parses blob's ciphertext into ct, decrypts it with d into seed and
// checks the confirmation tag.
func decapsulate(p *Params, d decrypter, sk *PrivateKey, blob EncapsulatedKey, ct *core.Ciphertext, seed []byte) ([SharedKeySize]byte, error) {
	var zero [SharedKeySize]byte
	if sk.params.inner != p.inner {
		return zero, paramsMismatch("private key")
	}
	ctLen := p.CiphertextSize()
	if len(blob) != ctLen+confirmTagSize {
		return zero, fmt.Errorf("ringlwe: encapsulation blob is %d bytes, want %d", len(blob), ctLen+confirmTagSize)
	}
	if err := core.ParseCiphertextInto(ct, blob[:ctLen]); err != nil {
		return zero, fmt.Errorf("ringlwe: %w", err)
	}
	if err := d.DecryptInto(seed, sk.inner, ct); err != nil {
		return zero, err
	}
	tag := kemTag(seed)
	if subtle.ConstantTimeCompare(tag[:], blob[ctLen:]) != 1 {
		return zero, ErrDecapsulation
	}
	return kemKey(seed), nil
}

// EncapsulationSize returns the wire size of an encapsulation blob.
func (p *Params) EncapsulationSize() int { return p.CiphertextSize() + confirmTagSize }
