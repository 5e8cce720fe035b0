package ringlwe

import "ringlwe/internal/par"

// Batch operations: concurrency-safe on a shared Scheme. Each call drives
// the bounded worker pool of internal/par (GOMAXPROCS workers at most,
// one pooled workspace per worker), so N-item batches pay workspace setup
// at most once per worker and the per-item crypto path allocates only its
// outputs.

// runBatch runs fn over indices [0, n), one pooled top-level workspace per
// worker; per-item failures are reported by fn writing into caller-owned
// slices, batch-level failures via fn's returned error (first one wins).
func (s *Scheme) runBatch(n int, fn func(w *Workspace, i int) error) error {
	return par.ParallelFor(n, 0, func() (func(i int) error, func()) {
		w := s.AcquireWorkspace()
		return func(i int) error { return fn(w, i) }, func() { s.ReleaseWorkspace(w) }
	})
}

// EncryptBatch encrypts every message to pk concurrently; ciphertext i
// corresponds to msgs[i]. Safe to call from multiple goroutines at once.
func (s *Scheme) EncryptBatch(pk *PublicKey, msgs [][]byte) ([]*Ciphertext, error) {
	if pk.params.inner != s.params.inner {
		return nil, paramsMismatch("public key")
	}
	cts := make([]*Ciphertext, len(msgs))
	err := s.runBatch(len(msgs), func(w *Workspace, i int) (err error) {
		cts[i], err = w.Encrypt(pk, msgs[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return cts, nil
}

// DecryptBatch decrypts every ciphertext with sk concurrently; message i
// corresponds to cts[i].
func (s *Scheme) DecryptBatch(sk *PrivateKey, cts []*Ciphertext) ([][]byte, error) {
	if sk.params.inner != s.params.inner {
		return nil, paramsMismatch("private key")
	}
	msgs := make([][]byte, len(cts))
	err := s.runBatch(len(cts), func(w *Workspace, i int) (err error) {
		msgs[i], err = w.Decrypt(sk, cts[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return msgs, nil
}

// EncapsulateBatch produces n independent encapsulations to pk
// concurrently: blob i transports key i.
func (s *Scheme) EncapsulateBatch(pk *PublicKey, n int) ([]EncapsulatedKey, [][SharedKeySize]byte, error) {
	if pk.params.inner != s.params.inner {
		return nil, nil, paramsMismatch("public key")
	}
	blobs := make([]EncapsulatedKey, n)
	keys := make([][SharedKeySize]byte, n)
	err := s.runBatch(n, func(w *Workspace, i int) error {
		blob, key, err := w.Encapsulate(pk)
		if err != nil {
			return err
		}
		blobs[i], keys[i] = blob, key
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return blobs, keys, nil
}

// DecapsulateBatch recovers the session key of every blob concurrently.
// Failures are per item — errs[i] is nil on success, ErrDecapsulation on a
// confirmation failure (wrong key material or an intrinsic LPR decryption
// failure; the peer should encapsulate that item again), or a parse error
// for malformed blobs. keys[i] is only meaningful when errs[i] is nil.
func (s *Scheme) DecapsulateBatch(sk *PrivateKey, blobs []EncapsulatedKey) (keys [][SharedKeySize]byte, errs []error) {
	keys = make([][SharedKeySize]byte, len(blobs))
	errs = make([]error, len(blobs))
	if sk.params.inner != s.params.inner {
		err := paramsMismatch("private key")
		for i := range errs {
			errs[i] = err
		}
		return keys, errs
	}
	s.runBatch(len(blobs), func(w *Workspace, i int) error {
		keys[i], errs[i] = w.Decapsulate(sk, blobs[i])
		return nil
	})
	return keys, errs
}
