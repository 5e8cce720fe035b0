package rng

import "crypto/aes"

// ForkSource derives an independent child source from src. Forking is how
// per-goroutine workspaces obtain their own randomness without contending
// on (or racing over) a shared source: the parent is touched once, at
// fork time, and callers serialize ForkSource against other uses of src.
//
//   - A Xorshift128 child is seeded from two parent words, so forked
//     deterministic schemes stay reproducible.
//   - A CryptoSource with an entropy reader gets a fresh source over the
//     same reader, keyed on its own first draw. The fork reads nothing, so
//     a fork taken under a lock never waits on the OS.
//   - Every other source (a ReaderSource, a HashDRBG, a keyed
//     CryptoSource) gets a keyed CryptoSource: its AES-256 key and IV are
//     the next 12 words of src, and it rekeys by fast key erasure.
func ForkSource(src Source) Source {
	switch s := src.(type) {
	case *Xorshift128:
		return NewXorshift128(uint64(s.Uint32())<<32 | uint64(s.Uint32()))
	case *CryptoSource:
		if s.entropy != nil {
			return newCryptoSource(s.entropy)
		}
	}
	var seed [32 + aes.BlockSize]byte
	FillWords(src, seed[:])
	c := newCryptoSource(nil)
	c.key(&seed)
	return c
}
