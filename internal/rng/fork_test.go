package rng

import (
	"bytes"
	"crypto/rand"
	"testing"
)

func TestForkXorshiftDeterministic(t *testing.T) {
	a := NewXorshift128(7)
	b := NewXorshift128(7)
	fa := ForkSource(a)
	fb := ForkSource(b)
	for i := 0; i < 64; i++ {
		if fa.Uint32() != fb.Uint32() {
			t.Fatal("forks of identically seeded parents diverge")
		}
	}
	// Parents advanced identically through the fork and stay in sync.
	for i := 0; i < 64; i++ {
		if a.Uint32() != b.Uint32() {
			t.Fatal("parents diverge after forking")
		}
	}
}

func TestForkIndependentOfParent(t *testing.T) {
	parent := NewXorshift128(11)
	child := ForkSource(parent)
	// A child emitting the parent's own upcoming stream would mean the
	// fork aliased state instead of deriving it.
	var same int
	for i := 0; i < 64; i++ {
		if child.Uint32() == parent.Uint32() {
			same++
		}
	}
	if same > 8 {
		t.Fatalf("child matches parent stream in %d/64 draws", same)
	}
}

func TestForkSuccessiveChildrenDiffer(t *testing.T) {
	parent := NewXorshift128(13)
	c1 := ForkSource(parent)
	c2 := ForkSource(parent)
	var same int
	for i := 0; i < 64; i++ {
		if c1.Uint32() == c2.Uint32() {
			same++
		}
	}
	if same > 8 {
		t.Fatalf("sibling forks agree in %d/64 draws", same)
	}
}

// TestForkHashDRBG pins that a HashDRBG, which cannot fork itself, forks
// into a keyed CryptoSource, and that forks of identically seeded
// generators run the same keystream.
func TestForkHashDRBG(t *testing.T) {
	a := NewHashDRBG([]byte("seed"))
	b := NewHashDRBG([]byte("seed"))
	fa, fb := ForkSource(a), ForkSource(b)
	if c, ok := fa.(*CryptoSource); !ok || c.entropy != nil {
		t.Fatalf("HashDRBG fork is %T, want a keyed *CryptoSource", fa)
	}
	for i := 0; i < 32; i++ {
		if fa.Uint32() != fb.Uint32() {
			t.Fatal("HashDRBG forks are not deterministic")
		}
	}
}

func TestForkCryptoSource(t *testing.T) {
	c := NewCryptoSource()
	f := ForkSource(c)
	if f == nil {
		t.Fatal("nil fork")
	}
	// Smoke: both produce output without panicking.
	_ = c.Uint32()
	_ = f.Uint32()
}

// fallbackSource exercises the generic fork for source types ForkSource
// does not name.
type fallbackSource struct{ n uint32 }

func (s *fallbackSource) Uint32() uint32 { s.n++; return s.n }

// TestForkFallbackDeterministic pins the generic fork: the child is a
// keyed CryptoSource running the AES-256-CTR keystream whose key and IV
// are the parent's next 12 words, little-endian.
func TestForkFallbackDeterministic(t *testing.T) {
	seed := drawWords(&fallbackSource{}, 12)
	child := ForkSource(&fallbackSource{})
	if got, want := drawWords(child, 1000), ctrKeystream(t, seed, 4000); !bytes.Equal(got, want) {
		t.Fatal("fallback fork does not run the keystream keyed by the parent's next 12 words")
	}
}

// TestForkKeyedSiblingsDiffer pins that sibling forks of one parent never
// share a keystream, for each parent that forks into a keyed source: a
// ReaderSource, a HashDRBG and a keyed CryptoSource, which forks from its
// own keystream.
func TestForkKeyedSiblingsDiffer(t *testing.T) {
	for name, parent := range map[string]Source{
		"ReaderSource": NewReaderSource(rand.Reader),
		"HashDRBG":     NewHashDRBG([]byte("siblings")),
		"keyed":        ForkSource(NewHashDRBG([]byte("keyed parent"))),
	} {
		a, b := ForkSource(parent), ForkSource(parent)
		for _, c := range []Source{a, b} {
			if k, ok := c.(*CryptoSource); !ok || k.entropy != nil {
				t.Fatalf("%s: fork is %T, want a keyed *CryptoSource", name, c)
			}
		}
		if bytes.Equal(drawWords(a, 64), drawWords(b, 64)) {
			t.Fatalf("%s: sibling forks run the same keystream", name)
		}
	}
}
