package rng

import (
	"bytes"
	"crypto/rand"
	"testing"
)

func TestCTRReaderDeterministic(t *testing.T) {
	a := NewCTRReader([]byte("seed"))
	b := NewCTRReader([]byte("seed"))
	bufA := make([]byte, 1024)
	bufB := make([]byte, 1024)
	a.Read(bufA)
	b.Read(bufB)
	if !bytes.Equal(bufA, bufB) {
		t.Fatal("same seed produced different streams")
	}
	c := NewCTRReader([]byte("other"))
	bufC := make([]byte, 1024)
	c.Read(bufC)
	if bytes.Equal(bufA, bufC) {
		t.Fatal("different seeds produced the same stream")
	}
}

// TestCTRReaderSplitInvariance pins that the keystream does not depend on
// read granularity: many small reads equal one large read.
func TestCTRReaderSplitInvariance(t *testing.T) {
	whole := make([]byte, 257)
	NewCTRReader([]byte("split")).Read(whole)
	pieces := make([]byte, 0, len(whole))
	r := NewCTRReader([]byte("split"))
	for _, n := range []int{1, 2, 3, 5, 7, 16, 64, 100, 59} {
		chunk := make([]byte, n)
		r.Read(chunk)
		pieces = append(pieces, chunk...)
	}
	if !bytes.Equal(whole, pieces) {
		t.Fatal("keystream depends on read granularity")
	}
}

// TestCTRReaderOverwrites pins that Read replaces whatever the caller left
// in the buffer instead of XORing over it.
func TestCTRReaderOverwrites(t *testing.T) {
	clean := make([]byte, 64)
	NewCTRReader([]byte("xor")).Read(clean)
	dirty := bytes.Repeat([]byte{0xAA}, 64)
	NewCTRReader([]byte("xor")).Read(dirty)
	if !bytes.Equal(clean, dirty) {
		t.Fatal("Read output depends on prior buffer contents")
	}
}

// TestReaderSourceForkFallback pins that a ReaderSource forks into a
// HashDRBG child seeded from its own stream.
func TestReaderSourceForkFallback(t *testing.T) {
	plain := NewReaderSource(NewCTRReader([]byte("x")))
	child := ForkSource(plain)
	if _, ok := child.(*HashDRBG); !ok {
		t.Fatalf("fallback fork is %T, want *HashDRBG", child)
	}
}

// TestCTRReaderHealth runs the FIPS 140-1 style statistical checks over
// the DRBG output, as the package does for its other sources.
func TestCTRReaderHealth(t *testing.T) {
	results, ok := HealthCheck(NewReaderSource(NewCTRReaderOS()))
	if !ok {
		t.Fatalf("health check failed: %+v", results)
	}
}

// The benchmarks back the ROADMAP claim that an AES-CTR DRBG beats
// crypto/rand for sampler-refill-sized reads. Compare:
//
//	go test -run XXX -bench 'EntropyRead' ./internal/rng/
var entropySink byte

func benchRead(b *testing.B, read func(p []byte)) {
	buf := make([]byte, 256) // one ReaderSource/CryptoSource refill
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		read(buf)
	}
	entropySink = buf[0]
}

func BenchmarkEntropyReadCTR(b *testing.B) {
	r := NewCTRReaderOS()
	benchRead(b, func(p []byte) { r.Read(p) })
}

func BenchmarkEntropyReadCryptoRand(b *testing.B) {
	benchRead(b, func(p []byte) {
		if _, err := rand.Read(p); err != nil {
			b.Fatal(err)
		}
	})
}
