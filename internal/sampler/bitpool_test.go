package sampler

import (
	"testing"

	"ringlwe/internal/rng"
)

// TestBitPool64ScalarEquivalence pins the pool's defining property: for every
// draw width k, nextBits(k) returns exactly the bits k successive scalar
// Bit() calls would return over an identical source. The widths sweep is
// exhaustive (every k in 0..32), each width checked across enough draws to
// cross many refill boundaries, including straddling ones.
func TestBitPool64ScalarEquivalence(t *testing.T) {
	for k := uint(0); k <= 32; k++ {
		word := &bitPool64{src: rng.NewXorshift128(uint64(1000 + k))}
		scalar := rng.NewBitPool(rng.NewXorshift128(uint64(1000 + k)))
		for draw := 0; draw < 4096; draw++ {
			got := word.nextBits(k)
			var want uint64
			for i := uint(0); i < k; i++ {
				want |= uint64(scalar.Bit()) << i
			}
			if got != want {
				t.Fatalf("k=%d draw %d: nextBits = %#x, scalar stream = %#x", k, draw, got, want)
			}
		}
	}
}

// TestBitPool64MixedWidths interleaves every width against one shared stream,
// mimicking a sampler's mixture of probe, sign and LUT-2 draws.
func TestBitPool64MixedWidths(t *testing.T) {
	word := &bitPool64{src: rng.NewXorshift128(42)}
	scalar := rng.NewBitPool(rng.NewXorshift128(42))
	widths := []uint{8, 1, 32, 5, 1, 8, 8, 13, 31, 2, 0, 8, 1, 27, 32, 32, 1}
	for round := 0; round < 2048; round++ {
		k := widths[round%len(widths)]
		got := word.nextBits(k)
		var want uint64
		for i := uint(0); i < k; i++ {
			want |= uint64(scalar.Bit()) << i
		}
		if got != want {
			t.Fatalf("round %d (k=%d): nextBits = %#x, scalar = %#x", round, k, got, want)
		}
	}
}

// TestBitPool64Refills checks the fetch accounting: 31 payload bits per
// source word, so draining B bits costs ⌈B/31⌉ fetches.
func TestBitPool64Refills(t *testing.T) {
	p := &bitPool64{src: rng.NewXorshift128(7)}
	total := uint(0)
	for i := 0; i < 1000; i++ {
		k := uint(i % 33)
		p.nextBits(k)
		total += k
	}
	min := uint64((total + 30) / 31)
	if p.refills < min || p.refills > min+2 {
		t.Fatalf("Refills = %d after %d bits, want ≈ %d", p.refills, total, min)
	}
	if p.n != uint(p.refills*31)-total {
		t.Fatalf("%d bits buffered, want %d", p.n, uint(p.refills*31)-total)
	}
}

// TestBitPool64WidthPanic pins the k ≤ 32 contract.
func TestBitPool64WidthPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nextBits(33) did not panic")
		}
	}()
	(&bitPool64{src: rng.NewXorshift128(1)}).nextBits(33)
}
