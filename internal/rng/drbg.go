package rng

import (
	"crypto/sha256"
	"encoding/binary"

	"ringlwe/internal/cacheline"
)

// HashDRBG is a deterministic random bit generator: SHA-256 in counter
// mode over a seed. It exists for derandomized encryption (the
// Fujisaki-Okamoto transform re-derives the encryption coins from the
// message, so the same message and seed must reproduce the exact
// ciphertext) and is indistinguishable from random as long as SHA-256 is.
// It is NOT a general-purpose CSPRNG replacement: it never reseeds, and
// it cannot fork itself (ForkSource keys a CryptoSource from its output).
// Its state sits between cache-line pads (see package cacheline).
type HashDRBG struct {
	_       cacheline.Pad
	seed    [32]byte
	counter uint64
	buf     [32]byte
	used    int
	_       cacheline.Pad
}

// NewHashDRBG builds a generator over the given seed material (hashed to
// 32 bytes, so any length is accepted).
func NewHashDRBG(seed []byte) *HashDRBG {
	d := &HashDRBG{used: 32}
	d.seed = sha256.Sum256(seed)
	return d
}

// refill hashes seed ‖ counter (counter little-endian) into the next 32
// bytes of output. The input sits in a stack array, so refilling
// allocates nothing.
func (d *HashDRBG) refill() {
	var in [len(d.seed) + 8]byte
	copy(in[:], d.seed[:])
	binary.LittleEndian.PutUint64(in[len(d.seed):], d.counter)
	d.counter++
	d.buf = sha256.Sum256(in[:])
	d.used = 0
}

// Uint32 returns the next deterministic word.
func (d *HashDRBG) Uint32() uint32 {
	if d.used+4 > len(d.buf) {
		d.refill()
	}
	v := binary.LittleEndian.Uint32(d.buf[d.used:])
	d.used += 4
	return v
}
