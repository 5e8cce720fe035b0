package rng

import "encoding/binary"

// Word-granularity draws. The paper's bit pool stretches one 32-bit TRNG
// word across many single-bit Knuth-Yao steps; the batched and inversion
// samplers go the other way and consume randomness a whole machine word at
// a time. Uint64 is that primitive: it glues two source words into one
// 64-bit draw, low word first, so a 64-bit-uniform consumer (the CDT
// inversion lookup) pays two fetches and no per-bit bookkeeping at all.
// FillWords is the bulk form: a run of words as bytes, in one call.

// Uint64 returns the next 64 uniform bits of src, composed from two 32-bit
// draws with the first draw in the low half.
func Uint64(src Source) uint64 {
	lo := uint64(src.Uint32())
	return lo | uint64(src.Uint32())<<32
}

// FillWords writes the little-endian bytes of the next len(p)/4 words of
// src into p; a trailing len(p)%4 bytes are left as they are. The bytes
// are exactly those of as many successive Uint32 calls, so a caller may
// mix the two freely. A CryptoSource serves the run by copying from its
// keystream buffer; any other source pays one Uint32 call per word.
func FillWords(src Source, p []byte) {
	if c, ok := src.(*CryptoSource); ok {
		c.fill(p)
		return
	}
	for ; len(p) >= 4; p = p[4:] {
		binary.LittleEndian.PutUint32(p, src.Uint32())
	}
}
