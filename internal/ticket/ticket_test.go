package ticket

import (
	"errors"
	"sync"
	"testing"
	"time"

	"ringlwe/internal/rng"
)

func testKeeper(t *testing.T, rotate time.Duration, now func() time.Time) *Keeper {
	t.Helper()
	k := NewKeeper(rng.NewCTRReader([]byte(t.Name())), rotate)
	if now != nil {
		k.now = now
	}
	return k
}

// cacheLen counts the live entries across c's shards.
func cacheLen(c *ReplayCache) int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += len(c.shards[i].seen)
		c.shards[i].mu.Unlock()
	}
	return n
}

func testState(expiry time.Time) State {
	st := State{ParamsID: 1, Epoch: 3, Expiry: expiry}
	for i := range st.Secret {
		st.Secret[i] = byte(i)
	}
	return st
}

func TestSealOpenRoundTrip(t *testing.T) {
	k := testKeeper(t, time.Hour, nil)
	want := testState(time.Now().Add(time.Hour))
	tkt := k.Seal(want)
	if len(tkt) != TicketLen {
		t.Fatalf("ticket is %d bytes, want %d", len(tkt), TicketLen)
	}
	got, id, err := k.Open(tkt)
	if err != nil {
		t.Fatal(err)
	}
	if got.ParamsID != want.ParamsID || got.Epoch != want.Epoch || got.Secret != want.Secret {
		t.Fatalf("state round trip: got %+v want %+v", got, want)
	}
	if got.Expiry.UnixMilli() != want.Expiry.UnixMilli() {
		t.Fatalf("expiry round trip: got %v want %v", got.Expiry, want.Expiry)
	}
	var zero [ReplayIDLen]byte
	if id == zero {
		t.Fatal("zero replay ID")
	}
}

func TestReplayIDsUnique(t *testing.T) {
	k := testKeeper(t, time.Hour, nil)
	st := testState(time.Now().Add(time.Hour))
	seen := map[[ReplayIDLen]byte]bool{}
	for i := 0; i < 100; i++ {
		_, id, err := k.Open(k.Seal(st))
		if err != nil {
			t.Fatal(err)
		}
		if seen[id] {
			t.Fatalf("replay ID repeated after %d seals", i)
		}
		seen[id] = true
	}
}

func TestOpenGarbage(t *testing.T) {
	k := testKeeper(t, time.Hour, nil)
	st := testState(time.Now().Add(time.Hour))
	good := k.Seal(st)

	cases := map[string][]byte{
		"empty":     {},
		"short":     good[:len(good)-1],
		"long":      append(append([]byte{}, good...), 0),
		"corrupted": func() []byte { b := append([]byte{}, good...); b[len(b)-1] ^= 1; return b }(),
		"badnonce":  func() []byte { b := append([]byte{}, good...); b[keyIDLen] ^= 1; return b }(),
	}
	for name, tkt := range cases {
		if _, _, err := k.Open(tkt); err == nil {
			t.Errorf("%s ticket opened", name)
		}
	}
	// Unknown key ID.
	bad := append([]byte{}, good...)
	bad[0] ^= 0xFF
	if _, _, err := k.Open(bad); !errors.Is(err, ErrUnknownKey) {
		t.Errorf("foreign key ID: got %v, want ErrUnknownKey", err)
	}
	// The original still opens.
	if _, _, err := k.Open(good); err != nil {
		t.Errorf("good ticket stopped opening: %v", err)
	}
}

func TestOpenExpired(t *testing.T) {
	clock := time.Now()
	now := func() time.Time { return clock }
	k := testKeeper(t, time.Hour, now)
	tkt := k.Seal(testState(clock.Add(time.Minute)))
	if _, _, err := k.Open(tkt); err != nil {
		t.Fatalf("fresh ticket: %v", err)
	}
	clock = clock.Add(2 * time.Minute)
	if _, _, err := k.Open(tkt); !errors.Is(err, ErrExpired) {
		t.Fatalf("expired ticket: got %v, want ErrExpired", err)
	}
}

// TestKeyRotation pins the one-predecessor window: a ticket survives one
// rotation and dies at the second.
func TestKeyRotation(t *testing.T) {
	clock := time.Now()
	now := func() time.Time { return clock }
	k := testKeeper(t, time.Minute, now)
	st := testState(clock.Add(time.Hour))

	old := k.Seal(st)
	clock = clock.Add(61 * time.Second) // force one rotation
	mid := k.Seal(st)
	if _, _, err := k.Open(old); err != nil {
		t.Fatalf("ticket under previous key: %v", err)
	}
	clock = clock.Add(61 * time.Second) // second rotation retires old's key
	k.Seal(st)
	if _, _, err := k.Open(old); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("two-rotations-old ticket: got %v, want ErrUnknownKey", err)
	}
	if _, _, err := k.Open(mid); err != nil {
		t.Fatalf("one-rotation-old ticket: %v", err)
	}
}

func TestReplayCache(t *testing.T) {
	c := NewReplayCache(nil)
	exp := time.Now().Add(time.Hour)
	var a, b [ReplayIDLen]byte
	b[15] = 1
	if c.Seen(a, exp) {
		t.Fatal("fresh ID reported seen")
	}
	if !c.Seen(a, exp) {
		t.Fatal("replayed ID not caught")
	}
	if c.Seen(b, exp) {
		t.Fatal("distinct ID reported seen")
	}
	if cacheLen(c) != 2 {
		t.Fatalf("cache holds %d entries, want 2", cacheLen(c))
	}
}

func TestReplayCacheExpirySweep(t *testing.T) {
	clock := time.Now()
	c := NewReplayCache(func() time.Time { return clock })
	// Fill one shard past the sweep threshold with short-lived entries.
	var id [ReplayIDLen]byte
	for i := 0; i < sweepThreshold+10; i++ {
		// Keep every ID in shard 0: the counter bytes stay multiples of
		// replayShards.
		v := uint64(i) * replayShards
		id[8] = byte(v >> 56)
		id[9] = byte(v >> 48)
		id[10] = byte(v >> 40)
		id[11] = byte(v >> 32)
		id[12] = byte(v >> 24)
		id[13] = byte(v >> 16)
		id[14] = byte(v >> 8)
		id[15] = byte(v)
		c.Seen(id, clock.Add(time.Millisecond))
	}
	before := cacheLen(c)
	clock = clock.Add(time.Second)
	var fresh [ReplayIDLen]byte
	fresh[0] = 0xAA
	c.Seen(fresh, clock.Add(time.Hour))
	if after := cacheLen(c); after >= before {
		t.Fatalf("sweep did not shrink the cache: %d -> %d", before, after)
	}
	// An expired entry no longer counts as a replay.
	if c.Seen(id, clock.Add(time.Hour)) {
		t.Fatal("expired entry still counted as replay")
	}
}

// TestKeeperConcurrent seals and opens from many goroutines across a
// rotation boundary under -race.
func TestKeeperConcurrent(t *testing.T) {
	k := NewKeeper(rng.NewLockedReader(rng.NewCTRReader([]byte("conc"))), time.Hour)
	c := NewReplayCache(nil)
	st := testState(time.Now().Add(time.Hour))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				got, id, err := k.Open(k.Seal(st))
				if err != nil {
					t.Error(err)
					return
				}
				if got.Secret != st.Secret {
					t.Error("secret mismatch")
					return
				}
				if c.Seen(id, got.Expiry) {
					t.Error("fresh ticket flagged as replay")
					return
				}
			}
		}()
	}
	wg.Wait()
	if cacheLen(c) != 800 {
		t.Fatalf("cache holds %d entries, want 800", cacheLen(c))
	}
}
