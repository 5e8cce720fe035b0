package rng

import "encoding/binary"

// Forker is implemented by sources that can spawn an independent child
// stream. Forking is how per-goroutine workspaces obtain their own
// randomness without contending on (or racing over) a shared source: the
// parent is touched once at fork time, never again.
type Forker interface {
	// Fork returns a new Source whose output is independent of the
	// parent's subsequent output. Forking may consume parent state; callers
	// serialize Fork calls against other uses of the parent.
	Fork() Source
}

// ForkSource derives an independent child source from src. Sources that
// implement Forker fork natively; any other source seeds a HashDRBG child
// from 256 bits of parent output, which preserves determinism for
// deterministic parents and unpredictability for cryptographic ones.
func ForkSource(src Source) Source {
	if f, ok := src.(Forker); ok {
		return f.Fork()
	}
	var seed [32]byte
	for i := 0; i < len(seed); i += 4 {
		binary.LittleEndian.PutUint32(seed[i:], src.Uint32())
	}
	return NewHashDRBG(seed[:])
}

// Fork returns a fresh source over the parent's entropy reader, to be keyed
// independently on its own first draw. It reads nothing and leaves the
// parent untouched, so a fork taken under a lock never waits on the OS.
func (c *CryptoSource) Fork() Source { return newCryptoSource(c.entropy) }

// Fork derives a child generator seeded from the parent stream. The child
// is deterministic given the parent's state, so forked deterministic
// schemes stay reproducible.
func (s *Xorshift128) Fork() Source {
	seed := uint64(s.Uint32())<<32 | uint64(s.Uint32())
	return NewXorshift128(seed)
}

// Fork derives a child DRBG keyed by 256 bits of parent output.
func (d *HashDRBG) Fork() Source {
	var seed [32]byte
	for i := 0; i < len(seed); i += 4 {
		binary.LittleEndian.PutUint32(seed[i:], d.Uint32())
	}
	return NewHashDRBG(seed[:])
}
