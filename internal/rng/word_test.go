package rng

import (
	"bytes"
	"testing"
)

// TestUint64Composition pins the word order: first 32-bit draw in the low
// half, second in the high half.
func TestUint64Composition(t *testing.T) {
	a := NewXorshift128(99)
	b := NewXorshift128(99)
	for i := 0; i < 1000; i++ {
		lo := b.Uint32()
		hi := b.Uint32()
		want := uint64(lo) | uint64(hi)<<32
		if got := Uint64(a); got != want {
			t.Fatalf("draw %d: Uint64 = %#x, want %#x", i, got, want)
		}
	}
}

// keyedFrom returns the keyed CryptoSource that ForkSource makes of a
// ReaderSource whose reader starts with the 48 bytes of seed.
func keyedFrom(seed []byte) Source {
	raw := make([]byte, 256) // one ReaderSource buffer
	copy(raw, seed)
	return ForkSource(NewReaderSource(bytes.NewReader(raw)))
}

// fillTwins builds, for each source kind, two sources that yield the same
// word stream.
func fillTwins() []struct {
	name string
	mk   func() Source
} {
	seed := make([]byte, 48)
	for i := range seed {
		seed[i] = byte(i*29 + 1)
	}
	raw := make([]byte, 16<<10)
	for i := range raw {
		raw[i] = byte(i*131 + 7)
	}
	return []struct {
		name string
		mk   func() Source
	}{
		{"CryptoSource", func() Source { return newCryptoSource(bytes.NewReader(seed)) }},
		{"keyed CryptoSource", func() Source { return keyedFrom(seed) }},
		{"ReaderSource", func() Source { return NewReaderSource(bytes.NewReader(raw)) }},
		{"HashDRBG", func() Source { return NewHashDRBG([]byte("fill")) }},
		{"Xorshift128", func() Source { return NewXorshift128(7) }},
	}
}

// TestFillWordsMatchesUint32 pins the bulk draw to the word stream: on
// every source, FillWords writes exactly the little-endian bytes of
// len(p)/4 successive Uint32 calls on a twin, across buffer refills, and
// leaves the source where those calls leave it. A trailing partial word
// of p is not written.
func TestFillWordsMatchesUint32(t *testing.T) {
	// Odd word counts and ragged byte lengths; the running total crosses
	// the 256-byte buffers of CryptoSource and ReaderSource many times,
	// several times inside one call.
	lengths := []int{0, 3, 4, 7, 20, 252, 261, 316, 1021, 44, 2047, 13}
	for _, tc := range fillTwins() {
		src, twin := tc.mk(), tc.mk()
		for _, n := range lengths {
			got := bytes.Repeat([]byte{0xA5}, n)
			FillWords(src, got)
			want := append(drawWords(twin, n/4), bytes.Repeat([]byte{0xA5}, n%4)...)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: FillWords(%d bytes) differs from %d Uint32 calls", tc.name, n, n/4)
			}
			if a, b := src.Uint32(), twin.Uint32(); a != b {
				t.Fatalf("%s: after FillWords(%d bytes) the next word is %#x, want %#x", tc.name, n, a, b)
			}
		}
	}
}

// TestFillWordsCryptoRekeyBoundary pins the bulk draw across the rekey
// point: runs of 1023 words walk a CryptoSource past its first
// cryptoRekeyBytes, one run straddling the boundary, and every run
// matches the word stream of a twin; the second key is read exactly when
// the first is spent.
func TestFillWordsCryptoRekeyBoundary(t *testing.T) {
	seeds := make([]byte, 96)
	for i := range seeds {
		seeds[i] = byte(i*11 + 3)
	}
	r := bytes.NewReader(seeds)
	c := newCryptoSource(r)
	twin := newCryptoSource(bytes.NewReader(seeds))
	buf := make([]byte, 4*1023)
	for drawn := len(buf); drawn < cryptoRekeyBytes+len(buf); drawn += len(buf) {
		FillWords(c, buf)
		if !bytes.Equal(buf, drawWords(twin, len(buf)/4)) {
			t.Fatalf("run ending at byte %d differs from the word stream", drawn)
		}
		if want := 48 * (1 + (drawn-1)/cryptoRekeyBytes); 96-r.Len() != want {
			t.Fatalf("%d key bytes read after %d bytes drawn, want %d", 96-r.Len(), drawn, want)
		}
	}
}

// TestKeyedCryptoRekeyBoundary pins fast key erasure across the rekey
// point: a keyed source serves cryptoRekeyBytes of its first keystream,
// then runs under the key and IV that are that keystream's next 48 bytes,
// which it never serves. A twin keyed alike, drawn word by word, stays
// equal to bulk runs that straddle the boundary.
func TestKeyedCryptoRekeyBoundary(t *testing.T) {
	seed := make([]byte, 48)
	for i := range seed {
		seed[i] = byte(i*7 + 2)
	}
	c, twin := keyedFrom(seed), keyedFrom(seed)
	first := ctrKeystream(t, seed, cryptoRekeyBytes+48)
	next := first[cryptoRekeyBytes:] // the second key and IV
	want := append(first[:cryptoRekeyBytes:cryptoRekeyBytes], ctrKeystream(t, next, 3*4092)...)
	buf := make([]byte, 4092)
	for drawn := 0; drawn+len(buf) <= len(want); drawn += len(buf) {
		FillWords(c, buf)
		if !bytes.Equal(buf, want[drawn:drawn+len(buf)]) {
			t.Fatalf("run at byte %d differs from the fast-key-erasure keystream", drawn)
		}
		if !bytes.Equal(buf, drawWords(twin, len(buf)/4)) {
			t.Fatalf("run at byte %d differs from a twin keyed alike", drawn)
		}
	}
}

// TestFillWordsZeroAlloc pins the bulk draw at zero allocations on the
// sources whose own refills allocate nothing.
func TestFillWordsZeroAlloc(t *testing.T) {
	buf := make([]byte, 320)
	for _, tc := range fillTwins() {
		src := tc.mk()
		if n := testing.AllocsPerRun(20, func() { FillWords(src, buf) }); n != 0 {
			t.Errorf("%s: FillWords allocates %v/op", tc.name, n)
		}
	}
}
