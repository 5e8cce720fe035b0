package rng

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
)

// CTRReader is a fast deterministic random bit generator behind an
// io.Reader: AES-128 in counter mode over an all-zero plaintext, keyed
// from a seed. One seed read amortizes over the whole stream, and AES-CTR
// runs on the AES-NI unit at several GB/s. (The schemes' own OS-random
// word source, CryptoSource, is the rekeyed AES-256-CTR variant.)
//
// It implements io.Reader, so it plugs straight into the public
// ringlwe.WithRandom option; the channel server's ticket keeper and
// per-resumption server randoms draw from one behind a LockedReader.
//
// Like HashDRBG it never reseeds; the stream is as unpredictable as
// AES-128 against anyone who does not know the seed. Seed it from
// crypto/rand (see NewCTRReaderOS) for cryptographic use, or from a fixed
// seed for reproducible simulation.
type CTRReader struct {
	stream cipher.Stream
}

// NewCTRReader builds a generator over the given seed material: the seed
// is hashed to 32 bytes, the first 16 key AES-128 and the last 16 form the
// initial counter block, so any seed length is accepted and the whole
// 256-bit seed state is spent.
func NewCTRReader(seed []byte) *CTRReader {
	state := sha256.Sum256(seed)
	block, err := aes.NewCipher(state[:16])
	if err != nil {
		// aes.NewCipher fails only on invalid key length; 16 is valid.
		panic("rng: " + err.Error())
	}
	return &CTRReader{stream: cipher.NewCTR(block, state[16:])}
}

// NewCTRReaderOS builds a generator seeded with 256 bits from the
// operating system CSPRNG — the channel server's ticket-key and
// server-random source: one OS read at construction, then syscall-free
// randomness. It panics if crypto/rand fails, mirroring how the samplers
// treat a dead entropy source as a fatal fault.
func NewCTRReaderOS() *CTRReader {
	var seed [32]byte
	if _, err := rand.Read(seed[:]); err != nil {
		panic("rng: crypto/rand failed: " + err.Error())
	}
	return NewCTRReader(seed[:])
}

// Read fills p with the next bytes of the keystream. It never fails.
func (c *CTRReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	c.stream.XORKeyStream(p, p)
	return len(p), nil
}
