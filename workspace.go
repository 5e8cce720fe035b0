package ringlwe

import (
	"ringlwe/internal/cacheline"
	"ringlwe/internal/core"
)

// Workspace is a per-goroutine encryption context over a shared Scheme: a
// private Knuth-Yao sampler and bit pool (forked off the scheme's
// randomness source) plus preallocated scratch, so the steady-state
// EncryptInto / DecryptInto / Decapsulate path allocates nothing and many
// workspaces encrypt concurrently without contending.
//
// A Workspace is not safe for concurrent use; the Scheme and its keys are.
// Create one per goroutine with Scheme.NewWorkspace, or borrow from the
// scheme's pool with AcquireWorkspace/ReleaseWorkspace (what the batch
// methods and the protocol layer do).
type Workspace struct {
	params *Params
	scheme *Scheme
	inner  *core.Workspace

	// ctScratch and msgBuf serve the KEM path: the parsed (or freshly
	// built) ciphertext and the transported seed, reused across calls.
	// Every call writes msgBuf, so it is padded to cache lines of its own.
	ctScratch *core.Ciphertext
	msgBuf    []byte
}

// NewWorkspace forks an independent workspace off the scheme's randomness
// source. Safe to call concurrently; cheap (the parameter tables, twiddle
// factors and sampler LUTs are shared read-only).
func (s *Scheme) NewWorkspace() *Workspace {
	ws, err := s.inner.NewWorkspace()
	if err != nil {
		// Workspace construction over a validated Scheme cannot fail.
		panic("ringlwe: " + err.Error())
	}
	return &Workspace{
		params:    s.params,
		scheme:    s,
		inner:     ws,
		ctScratch: core.NewCiphertext(s.params.inner),
		msgBuf:    cacheline.Bytes(s.params.MessageSize()),
	}
}

// AcquireWorkspace borrows a workspace from the scheme's internal pool,
// forking a fresh one when the pool is empty. Pair with ReleaseWorkspace.
func (s *Scheme) AcquireWorkspace() *Workspace { return s.pool.Get().(*Workspace) }

// ReleaseWorkspace returns a workspace obtained from AcquireWorkspace to
// the pool. The workspace must not be used afterwards. Workspaces of a
// different scheme are ignored.
func (s *Scheme) ReleaseWorkspace(w *Workspace) {
	if w.scheme == s {
		s.pool.Put(w)
	}
}

// Params returns the workspace's parameter set.
func (w *Workspace) Params() *Params { return w.params }

// Encrypt seals a MessageSize-byte message to pk into a fresh ciphertext.
func (w *Workspace) Encrypt(pk *PublicKey, msg []byte) (*Ciphertext, error) {
	ct := NewCiphertext(w.params)
	if err := w.EncryptInto(ct, pk, msg); err != nil {
		return nil, err
	}
	return ct, nil
}

// EncryptInto seals msg to pk into a caller-owned ciphertext (see
// NewCiphertext), allocating nothing in steady state.
func (w *Workspace) EncryptInto(ct *Ciphertext, pk *PublicKey, msg []byte) error {
	if pk.params.inner != w.params.inner {
		return paramsMismatch("public key")
	}
	if ct.params.inner != w.params.inner {
		return paramsMismatch("ciphertext buffer")
	}
	return w.inner.EncryptInto(ct.inner, pk.inner, msg)
}

// Decrypt opens ct with sk into a fresh message buffer.
func (w *Workspace) Decrypt(sk *PrivateKey, ct *Ciphertext) ([]byte, error) {
	out := make([]byte, w.params.MessageSize())
	if err := w.DecryptInto(out, sk, ct); err != nil {
		return nil, err
	}
	return out, nil
}

// DecryptInto opens ct with sk into a caller-owned MessageSize-byte buffer,
// allocating nothing. Note the scheme's intrinsic failure rate; use the KEM
// interface when transporting keys.
func (w *Workspace) DecryptInto(dst []byte, sk *PrivateKey, ct *Ciphertext) error {
	if sk.params.inner != w.params.inner {
		return paramsMismatch("private key")
	}
	if ct.params.inner != w.params.inner {
		return paramsMismatch("ciphertext")
	}
	return w.inner.DecryptInto(dst, sk.inner, ct.inner)
}

// Encapsulate transports a fresh random session key to pk, reusing the
// workspace's scratch; only the returned wire blob is allocated.
func (w *Workspace) Encapsulate(pk *PublicKey) (EncapsulatedKey, [SharedKeySize]byte, error) {
	var zero [SharedKeySize]byte
	if pk.params.inner != w.params.inner {
		return nil, zero, paramsMismatch("public key")
	}
	seed := w.msgBuf
	w.inner.FillRandom(seed)
	if err := w.inner.EncryptInto(w.ctScratch, pk.inner, seed); err != nil {
		return nil, zero, err
	}
	ctLen := w.params.CiphertextSize()
	blob := make([]byte, ctLen+confirmTagSize)
	if err := w.ctScratch.MarshalInto(blob[:ctLen]); err != nil {
		return nil, zero, err
	}
	tag := kemTag(seed)
	copy(blob[ctLen:], tag[:])
	return blob, kemKey(seed), nil
}

// Decapsulate recovers the session key from an encapsulation blob,
// verifying the confirmation tag, with all polynomial work in workspace
// scratch. It returns ErrDecapsulation when the plaintext does not confirm
// — wrong key material or an intrinsic LPR decryption failure; the peer
// should encapsulate again.
func (w *Workspace) Decapsulate(sk *PrivateKey, blob EncapsulatedKey) ([SharedKeySize]byte, error) {
	return decapsulate(w.params, w.inner, sk, blob, w.ctScratch, w.msgBuf)
}

// GenerateKeys creates a key pair from the workspace's randomness stream.
func (w *Workspace) GenerateKeys() (*PublicKey, *PrivateKey, error) {
	pk, sk, err := w.inner.GenerateKeys()
	if err != nil {
		return nil, nil, err
	}
	return &PublicKey{params: w.params, inner: pk},
		&PrivateKey{params: w.params, inner: sk}, nil
}
