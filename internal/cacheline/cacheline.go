// Package cacheline keeps state that one goroutine writes off the cache
// lines that other goroutines touch.
//
// Every Workspace owns a sampler, bit pools, a randomness source and a few
// counters that its goroutine writes many times per operation. Allocated
// unpadded, the same objects of two workspaces come from the same size
// class and often land on one shared cache line, so two cores that share
// no data still pass that line back and forth on every write. Whether a
// pair shares a line depends on where the allocator happens to put them,
// so throughput changes from one process to the next. A struct that
// begins and ends with a Pad owns every line its other fields touch,
// wherever it is placed.
package cacheline

// Size is the cache-line size the padding assumes: 64 bytes on x86-64 and
// on most arm64 cores.
const Size = 64

// Pad is one cache line of padding. Put one before and one after the
// fields a single goroutine writes.
type Pad [Size]byte

// Bytes returns a zeroed n-byte buffer with a cache line of unused bytes
// on either side, so writes to it share no line with another allocation.
// Its capacity is n: appending to it reallocates rather than growing into
// the padding.
func Bytes(n int) []byte {
	b := make([]byte, n+2*Size)
	return b[Size : Size+n : Size+n]
}
