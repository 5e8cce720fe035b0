package swar

import (
	"testing"

	"ringlwe/internal/rng"
)

// TestBitPool64ScalarEquivalence pins the pool's defining property: for every
// draw width k, NextBits(k) returns exactly the bits k successive scalar
// Bit() calls would return over an identical source. The widths sweep is
// exhaustive (every k in 0..32), each width checked across enough draws to
// cross many refill boundaries, including straddling ones.
func TestBitPool64ScalarEquivalence(t *testing.T) {
	for k := uint(0); k <= 32; k++ {
		word := NewBitPool64(rng.NewXorshift128(uint64(1000 + k)))
		scalar := rng.NewBitPool(rng.NewXorshift128(uint64(1000 + k)))
		for draw := 0; draw < 4096; draw++ {
			got := word.NextBits(k)
			var want uint64
			for i := uint(0); i < k; i++ {
				want |= uint64(scalar.Bit()) << i
			}
			if got != want {
				t.Fatalf("k=%d draw %d: NextBits = %#x, scalar stream = %#x", k, draw, got, want)
			}
		}
	}
}

// TestBitPool64MixedWidths interleaves every width against one shared stream,
// mimicking a sampler's mixture of probe, sign and LUT-2 draws.
func TestBitPool64MixedWidths(t *testing.T) {
	word := NewBitPool64(rng.NewXorshift128(42))
	scalar := rng.NewBitPool(rng.NewXorshift128(42))
	widths := []uint{8, 1, 32, 5, 1, 8, 8, 13, 31, 2, 0, 8, 1, 27, 32, 32, 1}
	for round := 0; round < 2048; round++ {
		k := widths[round%len(widths)]
		got := word.NextBits(k)
		var want uint64
		for i := uint(0); i < k; i++ {
			want |= uint64(scalar.Bit()) << i
		}
		if got != want {
			t.Fatalf("round %d (k=%d): NextBits = %#x, scalar = %#x", round, k, got, want)
		}
	}
}

// TestBitPool64Refills checks the fetch accounting: 31 payload bits per
// source word, so draining B bits costs ⌈B/31⌉ fetches.
func TestBitPool64Refills(t *testing.T) {
	p := NewBitPool64(rng.NewXorshift128(7))
	total := uint(0)
	for i := 0; i < 1000; i++ {
		k := uint(i % 33)
		p.NextBits(k)
		total += k
	}
	min := uint64((total + 30) / 31)
	if p.Refills < min || p.Refills > min+2 {
		t.Fatalf("Refills = %d after %d bits, want ≈ %d", p.Refills, total, min)
	}
	if p.Remaining() != uint(p.Refills*31)-total {
		t.Fatalf("Remaining = %d, want %d", p.Remaining(), uint(p.Refills*31)-total)
	}
}

// TestBitPool64Next64 pins the fused 64-bit draw against 64 scalar Bit()
// calls, interleaved with narrower draws so the fusion is exercised at
// every buffer phase, not just on word boundaries.
func TestBitPool64Next64(t *testing.T) {
	word := NewBitPool64(rng.NewXorshift128(9))
	scalar := rng.NewBitPool(rng.NewXorshift128(9))
	phases := []uint{0, 8, 1, 5, 16, 31, 3}
	for round := 0; round < 2048; round++ {
		k := phases[round%len(phases)]
		word.NextBits(k)
		for i := uint(0); i < k; i++ {
			scalar.Bit()
		}
		got := word.Next64()
		var want uint64
		for i := uint(0); i < 64; i++ {
			want |= uint64(scalar.Bit()) << i
		}
		if got != want {
			t.Fatalf("round %d: Next64 = %#x, scalar stream = %#x", round, got, want)
		}
	}
}

// TestBitPool64WidthPanic pins the k ≤ 32 contract.
func TestBitPool64WidthPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NextBits(33) did not panic")
		}
	}()
	NewBitPool64(rng.NewXorshift128(1)).NextBits(33)
}
