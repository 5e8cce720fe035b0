package rng

import (
	"bytes"
	"io"
	"testing"
)

// ReaderSource decodes the stream little-endian, exactly like CryptoSource
// decodes its crypto/rand buffer.
func TestReaderSourceWords(t *testing.T) {
	raw := make([]byte, 1024)
	for i := range raw {
		raw[i] = byte(i * 31)
	}
	s := NewReaderSource(bytes.NewReader(raw))
	for i := 0; i < 256; i++ {
		want := uint32(raw[4*i]) | uint32(raw[4*i+1])<<8 | uint32(raw[4*i+2])<<16 | uint32(raw[4*i+3])<<24
		if got := s.Uint32(); got != want {
			t.Fatalf("word %d: got %#x, want %#x", i, got, want)
		}
	}
}

// Short reads are accumulated via io.ReadFull: a reader that dribbles one
// byte at a time still yields the same words.
func TestReaderSourceShortReads(t *testing.T) {
	raw := make([]byte, 512)
	for i := range raw {
		raw[i] = byte(i*7 + 3)
	}
	whole := NewReaderSource(bytes.NewReader(raw))
	dribble := NewReaderSource(iotest{r: bytes.NewReader(raw)})
	for i := 0; i < 128; i++ {
		a, b := whole.Uint32(), dribble.Uint32()
		if a != b {
			t.Fatalf("word %d: whole-read %#x != short-read %#x", i, a, b)
		}
	}
}

// iotest returns at most one byte per Read call.
type iotest struct{ r io.Reader }

func (d iotest) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return d.r.Read(p)
}

// An exhausted reader is a dead entropy source: the source panics rather
// than silently recycling stale bits.
func TestReaderSourceFailurePanics(t *testing.T) {
	s := NewReaderSource(bytes.NewReader(nil))
	defer func() {
		if recover() == nil {
			t.Fatal("exhausted reader did not panic")
		}
	}()
	s.Uint32()
}

// TestReaderSourceForkFallback pins that a ReaderSource forks into a keyed
// CryptoSource whose key and IV are the first 48 bytes of its reader.
func TestReaderSourceForkFallback(t *testing.T) {
	raw := make([]byte, 256)
	for i := range raw {
		raw[i] = byte(i*13 + 1)
	}
	child := ForkSource(NewReaderSource(bytes.NewReader(raw)))
	if c, ok := child.(*CryptoSource); !ok || c.entropy != nil {
		t.Fatalf("fallback fork is %T, want a keyed *CryptoSource", child)
	}
	if !bytes.Equal(drawWords(child, 100), ctrKeystream(t, raw[:48], 400)) {
		t.Fatal("fork does not run the keystream keyed by the reader's first 48 bytes")
	}
}
