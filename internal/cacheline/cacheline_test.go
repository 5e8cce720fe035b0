package cacheline

import "testing"

func TestBytes(t *testing.T) {
	for _, n := range []int{0, 1, 32, 64, 100} {
		b := Bytes(n)
		if len(b) != n || cap(b) != n {
			t.Fatalf("Bytes(%d): len %d cap %d, want %d and %d", n, len(b), cap(b), n, n)
		}
		for i, v := range b {
			if v != 0 {
				t.Fatalf("Bytes(%d)[%d] = %d, want 0", n, i, v)
			}
		}
	}
}
