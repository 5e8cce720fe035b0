package rng

import (
	"encoding/binary"
	"io"

	"ringlwe/internal/cacheline"
)

// ReaderSource adapts an io.Reader to the 32-bit word Source interface,
// buffering reads 256 bytes at a time so callers with syscall-backed
// readers amortize the per-read cost. It is the seam behind
// the public WithRandom option: any DRBG, HSM stream or test vector file
// that speaks io.Reader can drive the scheme. It cannot fork itself, so
// ForkSource gives each workspace a keyed CryptoSource whose key and IV
// are 48 bytes of the reader's output.
//
// Like CryptoSource, a read failure panics: the samplers have no error
// path, and a dead entropy source is a fatal fault, not a recoverable
// condition. Its buffer and position sit between cache-line pads (see
// package cacheline).
type ReaderSource struct {
	_   cacheline.Pad
	r   io.Reader
	buf [256]byte
	pos int
	_   cacheline.Pad
}

// NewReaderSource wraps r. The reader must yield uniformly distributed
// bytes; it is read in 256-byte chunks.
func NewReaderSource(r io.Reader) *ReaderSource {
	return &ReaderSource{r: r, pos: len(ReaderSource{}.buf)}
}

// Uint32 returns the next word from the reader.
func (s *ReaderSource) Uint32() uint32 {
	if s.pos+4 > len(s.buf) {
		if _, err := io.ReadFull(s.r, s.buf[:]); err != nil {
			panic("rng: randomness reader failed: " + err.Error())
		}
		s.pos = 0
	}
	v := binary.LittleEndian.Uint32(s.buf[s.pos:])
	s.pos += 4
	return v
}
