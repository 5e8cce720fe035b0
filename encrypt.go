package ringlwe

// The Encrypter/Decrypter capability: raw LPR encryption and decryption on
// the scheme's one-shot workspace. The KEM capability (kem.go) is the
// recommended way to transport keys — it detects the scheme's intrinsic
// decryption-failure rate instead of silently corrupting plaintext.

// GenerateKeys creates a key pair under a fresh uniform ã.
func (s *Scheme) GenerateKeys() (*PublicKey, *PrivateKey, error) {
	pk, sk, err := s.inner.GenerateKeys()
	if err != nil {
		return nil, nil, err
	}
	return &PublicKey{params: s.params, inner: pk},
		&PrivateKey{params: s.params, inner: sk}, nil
}

// Encrypt seals a MessageSize-byte message to pk.
func (s *Scheme) Encrypt(pk *PublicKey, msg []byte) (*Ciphertext, error) {
	if pk.params.inner != s.params.inner {
		return nil, paramsMismatch("public key")
	}
	ct, err := s.inner.Encrypt(pk.inner, msg)
	if err != nil {
		return nil, err
	}
	return &Ciphertext{params: s.params, inner: ct}, nil
}

// Decrypt opens ct with sk on the scheme's NTT engines and under its
// profile. Note the
// scheme's intrinsic failure rate; use the KEM interface when transporting
// keys. Decryption consumes no randomness, so unlike the other one-shot
// methods it takes no lock.
func (s *Scheme) Decrypt(sk *PrivateKey, ct *Ciphertext) ([]byte, error) {
	if sk.params.inner != s.params.inner {
		return nil, paramsMismatch("private key")
	}
	if ct.params.inner != s.params.inner {
		return nil, paramsMismatch("ciphertext")
	}
	out := make([]byte, s.params.MessageSize())
	if err := s.inner.DecryptInto(out, sk.inner, ct.inner); err != nil {
		return nil, err
	}
	return out, nil
}

// Decrypt opens ct directly with the private key (no Scheme needed:
// decryption consumes no randomness) on the default NTT engines, with the
// branch-free decoder every scheme uses — route through Scheme.Decrypt or
// a Workspace to run on a constant-time profile's engines.
func (sk *PrivateKey) Decrypt(ct *Ciphertext) ([]byte, error) {
	if ct.params.inner != sk.params.inner {
		return nil, paramsMismatch("ciphertext")
	}
	return sk.inner.Decrypt(ct.inner)
}
