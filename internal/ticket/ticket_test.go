package ticket

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func testKeeper(t testing.TB, rotate time.Duration, now func() time.Time) *Keeper {
	t.Helper()
	k := NewKeeper(rotate)
	if now != nil {
		k.now = now
	}
	return k
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
	got, err := k.Open(tkt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.ParamsID != want.ParamsID || got.Epoch != want.Epoch || got.Secret != want.Secret {
		t.Fatalf("state round trip: got %+v want %+v", got, want)
	}
	if got.Expiry.UnixMilli() != want.Expiry.UnixMilli() {
		t.Fatalf("expiry round trip: got %v want %v", got.Expiry, want.Expiry)
	}
}

// TestReplayIDsUnique pins that every sealed ticket carries its own
// (key, counter) name: each of many tickets claims its own bit.
func TestReplayIDsUnique(t *testing.T) {
	k := testKeeper(t, time.Hour, nil)
	st := testState(time.Now().Add(time.Hour))
	tickets := make([][]byte, 100)
	for i := range tickets {
		tickets[i] = k.Seal(st)
	}
	for i, tkt := range tickets {
		if _, err := k.Open(tkt, nil); err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
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
		"badctr":    func() []byte { b := append([]byte{}, good...); b[keyIDLen+4] ^= 0x80; return b }(), // no claim page
	}
	for name, tkt := range cases {
		if _, err := k.Open(tkt, nil); err == nil {
			t.Errorf("%s ticket opened", name)
		}
	}
	// Unknown key ID.
	bad := append([]byte{}, good...)
	bad[0] ^= 0xFF
	if _, err := k.Open(bad, nil); !errors.Is(err, ErrUnknownKey) {
		t.Errorf("foreign key ID: got %v, want ErrUnknownKey", err)
	}
	// The original still opens.
	if _, err := k.Open(good, nil); err != nil {
		t.Errorf("good ticket stopped opening: %v", err)
	}
}

func TestOpenExpired(t *testing.T) {
	clock := time.Now()
	now := func() time.Time { return clock }
	k := testKeeper(t, time.Hour, now)
	tkt := k.Seal(testState(clock.Add(time.Minute)))
	if _, err := k.Open(tkt, nil); err != nil {
		t.Fatalf("fresh ticket: %v", err)
	}
	// Expiry is checked before the claim, so the spent ticket reads as
	// expired rather than replayed.
	clock = clock.Add(2 * time.Minute)
	if _, err := k.Open(tkt, nil); !errors.Is(err, ErrExpired) {
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
	if _, err := k.Open(old, nil); err != nil {
		t.Fatalf("ticket under previous key: %v", err)
	}
	clock = clock.Add(61 * time.Second) // second rotation retires old's key
	k.Seal(st)
	if _, err := k.Open(old, nil); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("two-rotations-old ticket: got %v, want ErrUnknownKey", err)
	}
	if _, err := k.Open(mid, nil); err != nil {
		t.Fatalf("one-rotation-old ticket: %v", err)
	}
}

// TestClaimSingleUse pins that a ticket opens once: every later Open of
// the same bytes is ErrReplayed, and claiming one ticket spends no other.
func TestClaimSingleUse(t *testing.T) {
	k := testKeeper(t, time.Hour, nil)
	st := testState(time.Now().Add(time.Hour))
	a, b := k.Seal(st), k.Seal(st)
	if _, err := k.Open(a, nil); err != nil {
		t.Fatalf("first open: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := k.Open(a, nil); !errors.Is(err, ErrReplayed) {
			t.Fatalf("replay %d: got %v, want ErrReplayed", i, err)
		}
	}
	if _, err := k.Open(b, nil); err != nil {
		t.Fatalf("distinct ticket: %v", err)
	}
}

// TestClaimOneWinner races 16 goroutines to open one ticket (run under
// -race): exactly one gets the state, the rest ErrReplayed.
func TestClaimOneWinner(t *testing.T) {
	k := testKeeper(t, time.Hour, nil)
	tkt := k.Seal(testState(time.Now().Add(time.Hour)))
	var wins, replays atomic.Int32
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			switch _, err := k.Open(tkt, nil); {
			case err == nil:
				wins.Add(1)
			case errors.Is(err, ErrReplayed):
				replays.Add(1)
			default:
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if wins.Load() != 1 || replays.Load() != 15 {
		t.Fatalf("%d wins and %d replays, want 1 and 15", wins.Load(), replays.Load())
	}
}

// TestClaimAcrossRotation pins that the claim bitmap travels with its
// key: a ticket sealed before a rotation is claimed once under prev, and
// once prev is retired its tickets are ErrUnknownKey, claimed or not.
func TestClaimAcrossRotation(t *testing.T) {
	clock := time.Now()
	now := func() time.Time { return clock }
	k := testKeeper(t, time.Minute, now)
	st := testState(clock.Add(time.Hour))

	claimed, unclaimed := k.Seal(st), k.Seal(st)
	clock = clock.Add(61 * time.Second)
	fresh := k.Seal(st) // rotates: the first two now sit under prev
	if _, err := k.Open(claimed, nil); err != nil {
		t.Fatalf("ticket under prev: %v", err)
	}
	if _, err := k.Open(claimed, nil); !errors.Is(err, ErrReplayed) {
		t.Fatalf("replay under prev: got %v, want ErrReplayed", err)
	}
	if _, err := k.Open(fresh, nil); err != nil {
		t.Fatalf("ticket under cur: %v", err)
	}

	clock = clock.Add(61 * time.Second)
	k.Seal(st) // retires the first key and its bitmap
	for name, tkt := range map[string][]byte{"claimed": claimed, "unclaimed": unclaimed} {
		if _, err := k.Open(tkt, nil); !errors.Is(err, ErrUnknownKey) {
			t.Errorf("%s ticket under a retired key: got %v, want ErrUnknownKey", name, err)
		}
	}
	if _, err := k.Open(fresh, nil); !errors.Is(err, ErrReplayed) {
		t.Fatalf("claimed ticket under prev after rotation: got %v, want ErrReplayed", err)
	}
}

// TestClaimForgeryDoesNotSpend pins that the claim follows
// authentication: a forgery naming a genuine ticket's key and counter
// is refused as malformed and leaves that ticket's claim unspent.
func TestClaimForgeryDoesNotSpend(t *testing.T) {
	k := testKeeper(t, time.Hour, nil)
	good := k.Seal(testState(time.Now().Add(time.Hour)))
	forged := append([]byte{}, good...)
	forged[len(forged)-1] ^= 1 // flip a tag byte
	for i := 0; i < 3; i++ {
		if _, err := k.Open(forged, nil); !errors.Is(err, ErrMalformed) {
			t.Fatalf("forged ticket: got %v, want ErrMalformed", err)
		}
	}
	if _, err := k.Open(good, nil); err != nil {
		t.Fatalf("genuine ticket after forgeries: %v", err)
	}
}

// TestClaimZeroAlloc pins that Open, first claim or replay, allocates
// nothing when the caller lends it scratch of StateLen bytes' capacity,
// as the server's resume path does.
func TestClaimZeroAlloc(t *testing.T) {
	k := testKeeper(t, time.Hour, nil)
	st := testState(time.Now().Add(time.Hour))
	const runs = 100
	tickets := make([][]byte, runs+1)
	for i := range tickets {
		tickets[i] = k.Seal(st)
	}
	scratch := make([]byte, 0, StateLen)
	i := 0
	first := testing.AllocsPerRun(runs, func() {
		if _, err := k.Open(tickets[i], scratch); err != nil {
			t.Fatal(err)
		}
		i++
	})
	replay := testing.AllocsPerRun(runs, func() {
		if _, err := k.Open(tickets[0], scratch); !errors.Is(err, ErrReplayed) {
			t.Fatalf("got %v, want ErrReplayed", err)
		}
	})
	if first != 0 || replay != 0 {
		t.Fatalf("Open allocates %.0f (first claim) and %.0f (replay) per call, want 0", first, replay)
	}
}

// TestKeeperConcurrent seals and opens from many goroutines under -race;
// every ticket is claimed exactly once.
func TestKeeperConcurrent(t *testing.T) {
	k := testKeeper(t, time.Hour, nil)
	st := testState(time.Now().Add(time.Hour))
	var claims atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				got, err := k.Open(k.Seal(st), nil)
				if err != nil {
					t.Error(err)
					return
				}
				if got.Secret != st.Secret {
					t.Error("secret mismatch")
					return
				}
				claims.Add(1)
			}
		}()
	}
	wg.Wait()
	if claims.Load() != 800 {
		t.Fatalf("%d successful claims, want 800", claims.Load())
	}
}

// BenchmarkKeeperOpen opens tickets spread across 1k and 1M live
// tickets. A claim is one atomic OR on the ticket's bitmap word, so both
// read the same per op.
func BenchmarkKeeperOpen(b *testing.B) {
	for _, bc := range []struct {
		name string
		live int
	}{{"1k", 1 << 10}, {"1M", 1 << 20}} {
		k := testKeeper(b, time.Hour, nil)
		st := testState(time.Now().Add(time.Hour))
		// Keep 1024 of the live tickets, evenly spread over the bitmap.
		const sample = 1 << 10
		tickets := make([][]byte, 0, sample)
		for i := 0; i < bc.live; i++ {
			tkt := k.Seal(st)
			if i%(bc.live/sample) == 0 {
				tickets = append(tickets, tkt)
			}
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			scratch := make([]byte, 0, StateLen)
			for i := 0; i < b.N; i++ {
				// The first pass claims; later passes are replays,
				// which do the same work.
				if _, err := k.Open(tickets[i%sample], scratch); err != nil && !errors.Is(err, ErrReplayed) {
					b.Fatal(err)
				}
			}
		})
	}
}
