package rng

import (
	"io"
	"sync"
)

// LockedReader serializes access to an underlying io.Reader stream. The
// CTR and hash DRBGs are single-stream generators whose Read mutates
// internal state, so a reader shared by several goroutines — the ticket
// keeper drawing rotation keys from connection goroutines, a server
// minting nonces — must be locked.
type LockedReader struct {
	mu sync.Mutex
	r  io.Reader
}

// NewLockedReader wraps r with a mutex. The byte stream is that of r,
// unchanged.
func NewLockedReader(r io.Reader) *LockedReader {
	return &LockedReader{r: r}
}

// Read fills p from the underlying reader under the lock.
func (l *LockedReader) Read(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.r.Read(p)
}
