package rng

import (
	"bytes"
	"io"
	"sync"
	"testing"
)

// TestLockedReaderStream pins that locking does not change the stream.
func TestLockedReaderStream(t *testing.T) {
	seed := []byte("locked-reader-stream")
	plain := make([]byte, 1024)
	locked := make([]byte, 1024)
	if _, err := io.ReadFull(NewCTRReader(seed), plain); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(NewLockedReader(NewCTRReader(seed)), locked); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, locked) {
		t.Fatal("LockedReader altered the underlying stream")
	}
}

// TestLockedReaderConcurrent drives one LockedReader from many goroutines
// under -race: every read must succeed.
func TestLockedReaderConcurrent(t *testing.T) {
	lr := NewLockedReader(NewCTRReader([]byte("concurrent")))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 64)
			for i := 0; i < 50; i++ {
				if _, err := lr.Read(buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
