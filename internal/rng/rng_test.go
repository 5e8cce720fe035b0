package rng

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestXorshiftDeterminism(t *testing.T) {
	a := NewXorshift128(42)
	b := NewXorshift128(42)
	for i := 0; i < 1000; i++ {
		if a.Uint32() != b.Uint32() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
	c := NewXorshift128(43)
	same := 0
	a = NewXorshift128(42)
	for i := 0; i < 1000; i++ {
		if a.Uint32() == c.Uint32() {
			same++
		}
	}
	if same > 5 {
		t.Errorf("different seeds coincide on %d/1000 words", same)
	}
}

func TestXorshiftZeroSeed(t *testing.T) {
	s := NewXorshift128(0)
	// Must not get stuck at zero.
	var nonzero bool
	for i := 0; i < 10; i++ {
		if s.Uint32() != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("zero seed produced an all-zero stream")
	}
}

func TestCryptoSource(t *testing.T) {
	s := NewCryptoSource()
	seen := make(map[uint32]bool)
	for i := 0; i < 1000; i++ {
		seen[s.Uint32()] = true
	}
	if len(seen) < 990 {
		t.Errorf("crypto source produced only %d distinct words in 1000", len(seen))
	}
}

// ctrKeystream returns n bytes of AES-256-CTR keystream under seed's
// 32-byte key and the 16-byte IV after it, straight from crypto/cipher.
func ctrKeystream(t *testing.T, seed []byte, n int) []byte {
	t.Helper()
	block, err := aes.NewCipher(seed[:32])
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, n)
	cipher.NewCTR(block, seed[32:48]).XORKeyStream(out, out)
	return out
}

// drawWords returns the next n words of src, little-endian, as bytes.
func drawWords(src Source, n int) []byte {
	out := make([]byte, 4*n)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(out[4*i:], src.Uint32())
	}
	return out
}

// TestCryptoSourceKeystream pins the word stream, across several buffer
// refills, to the AES-256-CTR keystream under the key and IV the source
// read from its entropy reader.
func TestCryptoSourceKeystream(t *testing.T) {
	seed := make([]byte, 48)
	for i := range seed {
		seed[i] = byte(i*37 + 5)
	}
	const n = 1000 // words: four buffer refills
	got := drawWords(newCryptoSource(bytes.NewReader(seed)), n)
	if !bytes.Equal(got, ctrKeystream(t, seed, 4*n)) {
		t.Fatal("CryptoSource words differ from the AES-256-CTR keystream")
	}
}

// TestCryptoSourceRekeyBoundary pins the rekey point: word
// cryptoRekeyBytes/4 is the last under the first key, and the next word is
// the first under the second, whose key material is read just then.
func TestCryptoSourceRekeyBoundary(t *testing.T) {
	seeds := make([]byte, 96)
	for i := range seeds {
		seeds[i] = byte(i*11 + 3)
	}
	r := bytes.NewReader(seeds)
	c := newCryptoSource(r)
	const perKey = cryptoRekeyBytes / 4
	if !bytes.Equal(drawWords(c, perKey), ctrKeystream(t, seeds[:48], cryptoRekeyBytes)) {
		t.Fatal("first-key words differ from the first key's keystream")
	}
	if r.Len() != 48 {
		t.Fatalf("%d key bytes read by word %d, want 48", 96-r.Len(), perKey)
	}
	if !bytes.Equal(drawWords(c, 1), ctrKeystream(t, seeds[48:], 4)) {
		t.Fatalf("word %d is not the second key's first word", perKey+1)
	}
	if r.Len() != 0 {
		t.Fatalf("%d key bytes read by word %d, want 96", 96-r.Len(), perKey+1)
	}
}

// keyLog passes crypto/rand through and records every read, so a test can
// see which key material each source drew.
type keyLog struct {
	mu    sync.Mutex
	reads [][]byte
}

func (k *keyLog) Read(p []byte) (int, error) {
	n, err := rand.Read(p)
	k.mu.Lock()
	k.reads = append(k.reads, bytes.Clone(p[:n]))
	k.mu.Unlock()
	return n, err
}

// TestCryptoSourceForksKeyIndependently pins that a fork reads no key
// material (a scheme forks under its lock) and that every source, parent
// and forks alike, keys itself from its own read on its first draw: no two
// share a key.
func TestCryptoSourceForksKeyIndependently(t *testing.T) {
	log := &keyLog{}
	parent := newCryptoSource(log)
	a, b := ForkSource(parent), ForkSource(parent)
	if len(log.reads) != 0 {
		t.Fatalf("ForkSource read key material %d times", len(log.reads))
	}
	keys := map[string]bool{}
	for i, src := range []Source{a, b, parent} {
		got := drawWords(src, 8)
		if len(log.reads) != i+1 {
			t.Fatalf("source %d: %d key reads after its first draw, want %d", i, len(log.reads), i+1)
		}
		seed := log.reads[i]
		if !bytes.Equal(got, ctrKeystream(t, seed, len(got))) {
			t.Fatalf("source %d does not run under the key it read", i)
		}
		if keys[string(seed[:32])] {
			t.Fatalf("source %d shares a key", i)
		}
		keys[string(seed[:32])] = true
	}
}

// TestCryptoSourceZeroAlloc pins that drawing words allocates nothing
// between rekeys; only a rekey builds a new cipher.
func TestCryptoSourceZeroAlloc(t *testing.T) {
	c := NewCryptoSource()
	c.Uint32() // keys the source
	// The warm-up and measured runs draw 128 KiB together, inside one key.
	if n := testing.AllocsPerRun(1, func() {
		for i := 0; i < 1<<14; i++ {
			c.Uint32()
		}
	}); n != 0 {
		t.Errorf("CryptoSource.Uint32 allocates: %v allocs per 16Ki words", n)
	}
}

func TestFetchCost(t *testing.T) {
	// Idle longer than the generation interval: only the minimum wait.
	if got := FetchCost(1000); got != MinWaitCycles {
		t.Errorf("FetchCost(1000) = %d, want %d", got, MinWaitCycles)
	}
	// Back-to-back: full stall.
	if got := FetchCost(0); got != CPUCyclesPerWord {
		t.Errorf("FetchCost(0) = %d, want %d", got, CPUCyclesPerWord)
	}
	// Partial overlap.
	if got := FetchCost(100); got != CPUCyclesPerWord-100 {
		t.Errorf("FetchCost(100) = %d, want %d", got, CPUCyclesPerWord-100)
	}
	// Never below the minimum polling wait.
	if got := FetchCost(CPUCyclesPerWord - 3); got != MinWaitCycles {
		t.Errorf("FetchCost(137) = %d, want %d", got, MinWaitCycles)
	}
}

// The pool must deliver the source's bits in order, LSB first, 31 per word
// (the MSB is sacrificed to the sentinel).
func TestBitPoolStreamOrder(t *testing.T) {
	words := []uint32{0xDEADBEEF, 0x12345678, 0xFFFFFFFF, 0}
	src := &scriptedSource{words: words}
	p := NewBitPool(src)
	for w := 0; w < len(words); w++ {
		for i := uint(0); i < 31; i++ {
			want := (words[w] >> i) & 1
			if got := p.Bit(); got != want {
				t.Fatalf("word %d bit %d: got %d want %d", w, i, got, want)
			}
		}
	}
	if p.Refills != uint64(len(words)) {
		t.Errorf("Refills = %d, want %d", p.Refills, len(words))
	}
}

type scriptedSource struct {
	words []uint32
	pos   int
}

func (s *scriptedSource) Uint32() uint32 {
	w := s.words[s.pos%len(s.words)]
	s.pos++
	return w
}

func TestBitPoolRemaining(t *testing.T) {
	p := NewBitPool(NewXorshift128(7))
	if p.Remaining() != 0 {
		t.Fatalf("fresh pool Remaining = %d, want 0", p.Remaining())
	}
	p.Bit()
	if p.Remaining() != 30 {
		t.Fatalf("after 1 bit Remaining = %d, want 30", p.Remaining())
	}
	for i := 0; i < 30; i++ {
		p.Bit()
	}
	if p.Remaining() != 0 {
		t.Fatalf("after 31 bits Remaining = %d, want 0", p.Remaining())
	}
	if p.Refills != 1 {
		t.Fatalf("Refills = %d, want 1", p.Refills)
	}
}

func TestBitPoolBitsPacking(t *testing.T) {
	// Bits(n) must equal n sequential Bit() calls packed LSB-first.
	mk := func() (*BitPool, *BitPool) {
		return NewBitPool(NewXorshift128(99)), NewBitPool(NewXorshift128(99))
	}
	a, b := mk()
	for trial := 0; trial < 200; trial++ {
		n := uint(trial % 32)
		if n > 31 {
			n = 31
		}
		got := a.Bits(n)
		var want uint32
		for i := uint(0); i < n; i++ {
			want |= b.Bit() << i
		}
		if got != want {
			t.Fatalf("trial %d: Bits(%d) = %#x, want %#x", trial, n, got, want)
		}
	}
}

func TestBitPoolBitsStraddlesRefill(t *testing.T) {
	p := NewBitPool(NewXorshift128(5))
	p.Bits(25) // leave 6 bits in the register
	if p.Remaining() != 6 {
		t.Fatalf("Remaining = %d, want 6", p.Remaining())
	}
	v := p.Bits(20) // needs a refill mid-call
	if p.Refills != 2 {
		t.Errorf("Refills = %d, want 2", p.Refills)
	}
	_ = v
	if p.Remaining() != 31-14 {
		t.Errorf("Remaining = %d, want 17", p.Remaining())
	}
}

// refBits is the bit-serial Bits the word-at-a-time one replaced: n Bit
// calls packed LSB-first. It is the oracle for the stream, the refill
// points and the register state.
func refBits(p *BitPool, n uint) uint32 {
	var v uint32
	for i := uint(0); i < n; i++ {
		v |= p.Bit() << i
	}
	return v
}

// TestBitPoolBitsMatchesBitSerial drives a word-at-a-time pool and a
// bit-serial one over the same source through random interleavings of Bit
// and Bits(n) for every n in [0, 31], and checks that every draw returns
// the same value and leaves the same Refills and Remaining.
func TestBitPoolBitsMatchesBitSerial(t *testing.T) {
	const draws = 100000
	for _, seed := range []uint64{1, 2, 3} {
		got := NewBitPool(NewXorshift128(seed))
		want := NewBitPool(NewXorshift128(seed))
		script := NewXorshift128(seed + 1000)
		var boundary, straddles int
		for i := 0; i < draws; i++ {
			op := script.Uint32()
			var g, w uint32
			n := uint(op % 33) // 32 means a single Bit call
			before := want.Remaining()
			if n == 32 {
				g, w = got.Bit(), want.Bit()
			} else {
				g, w = got.Bits(n), refBits(want, n)
			}
			if before == n && n > 0 {
				boundary++ // ends exactly on the register's last bit
			}
			if n != 32 && n > before {
				straddles++
			}
			if g != w || got.Refills != want.Refills || got.Remaining() != want.Remaining() {
				t.Fatalf("seed %d draw %d (n=%d, %d bits before): got %#x refills %d remaining %d, want %#x refills %d remaining %d",
					seed, i, n, before, g, got.Refills, got.Remaining(), w, want.Refills, want.Remaining())
			}
		}
		if boundary < 100 || straddles < 1000 {
			t.Fatalf("seed %d: only %d boundary draws and %d straddles", seed, boundary, straddles)
		}
	}
}

// A read that takes exactly the bits left must not refill: the next word
// is fetched only when a bit of it is needed, as in the bit-serial pool.
func TestBitPoolBitsRefillsLazily(t *testing.T) {
	words := []uint32{0x7FFFFFFF, 0x2AAAAAAA}
	p := NewBitPool(&scriptedSource{words: words})
	if v := p.Bits(31); v != 0x7FFFFFFF || p.Refills != 1 || p.Remaining() != 0 {
		t.Fatalf("Bits(31) = %#x, Refills %d, Remaining %d", v, p.Refills, p.Remaining())
	}
	if v := p.Bits(0); v != 0 || p.Refills != 1 {
		t.Fatalf("Bits(0) on an empty register = %#x, Refills %d", v, p.Refills)
	}
	if v := p.Bits(4); v != 0xA || p.Refills != 2 || p.Remaining() != 27 {
		t.Fatalf("Bits(4) = %#x, Refills %d, Remaining %d", v, p.Refills, p.Remaining())
	}
}

func TestBitPoolBitsRejectsOversize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Bits(32) did not panic")
		}
	}()
	NewBitPool(NewXorshift128(1)).Bits(32)
}

// Property: bits are individually unbiased-ish and Bits(k) < 2^k always.
func TestBitPoolRangeQuick(t *testing.T) {
	p := NewBitPool(NewXorshift128(123))
	f := func(k uint8) bool {
		n := uint(k % 32)
		if n == 31 {
			n = 30
		}
		return p.Bits(n) < 1<<n || n == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestHealthCheckPassesOnGoodSources(t *testing.T) {
	// Stopped 900 words short of its first rekey, so the battery's 1875
	// words straddle it.
	rekeying := NewCryptoSource()
	for i := 0; i < cryptoRekeyBytes/4-900; i++ {
		rekeying.Uint32()
	}
	keyedRekeying := ForkSource(NewReaderSource(rand.Reader))
	for i := 0; i < cryptoRekeyBytes/4-900; i++ {
		keyedRekeying.Uint32()
	}
	for name, src := range map[string]Source{
		"xorshift":                  NewXorshift128(2024),
		"crypto":                    NewCryptoSource(),
		"crypto across rekey":       rekeying,
		"keyed crypto":              ForkSource(NewHashDRBG([]byte("health"))),
		"keyed crypto across rekey": keyedRekeying,
	} {
		results, ok := HealthCheck(src)
		if !ok {
			t.Errorf("%s failed health check: %+v", name, results)
		}
	}
}

func TestHealthCheckFailsOnBrokenSource(t *testing.T) {
	// A stuck-at source must fail monobit and runs.
	stuck := &scriptedSource{words: []uint32{0}}
	results, ok := HealthCheck(stuck)
	if ok {
		t.Fatal("stuck-at-zero source passed the health check")
	}
	var monobitFailed, runsFailed bool
	for _, r := range results {
		switch r.Name {
		case "monobit":
			monobitFailed = !r.Pass
		case "runs":
			runsFailed = !r.Pass
		}
	}
	if !monobitFailed || !runsFailed {
		t.Errorf("expected monobit and runs to fail: %+v", results)
	}

	// An alternating source passes monobit but fails poker/runs.
	alt := &scriptedSource{words: []uint32{0xAAAAAAAA}}
	_, ok = HealthCheck(alt)
	if ok {
		t.Error("alternating source passed the health check")
	}
}

func BenchmarkBitPoolBit(b *testing.B) {
	p := NewBitPool(NewXorshift128(1))
	for i := 0; i < b.N; i++ {
		p.Bit()
	}
}

// BenchmarkBitPoolBits reads n-bit fields: 5 and 8 are the Knuth-Yao LUT
// probes, 13 the uniform ã rejection width, 16 the KEM seed half words and
// 22 a read that straddles a refill most of the time.
func BenchmarkBitPoolBits(b *testing.B) {
	for _, n := range []uint{5, 8, 13, 16, 22} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := NewBitPool(NewXorshift128(1))
			var sink uint32
			for i := 0; i < b.N; i++ {
				sink ^= p.Bits(n)
			}
			bitsSink = sink
		})
	}
}

var bitsSink uint32

// BenchmarkCryptoSourceUint32 is the per-word cost of the OS-random
// source every workspace of an unseeded scheme draws from, rekeys
// included.
func BenchmarkCryptoSourceUint32(b *testing.B) {
	c := NewCryptoSource()
	b.SetBytes(4)
	b.ReportAllocs()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink ^= c.Uint32()
	}
	bitsSink = sink
}

// BenchmarkForkedReaderSourceUint32 is the per-word cost of the source
// every workspace of a WithRandom scheme draws from: a fork of the
// ReaderSource over the caller's reader.
func BenchmarkForkedReaderSourceUint32(b *testing.B) {
	c := ForkSource(NewReaderSource(rand.Reader))
	b.SetBytes(4)
	b.ReportAllocs()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink ^= c.Uint32()
	}
	bitsSink = sink
}

func BenchmarkXorshift(b *testing.B) {
	s := NewXorshift128(1)
	for i := 0; i < b.N; i++ {
		s.Uint32()
	}
}
