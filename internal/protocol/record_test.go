package protocol

import (
	"bytes"
	"encoding/hex"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"

	"ringlwe"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// goldenChannel returns a channel with fixed send keys and sequence
// number 41, writing to w.
func goldenChannel(w io.Writer) *Channel {
	c := &Channel{rw: rwShim{bytes.NewReader(nil), w}}
	var key [16]byte
	for i := range key {
		key[i] = byte(i)
	}
	var mac [32]byte
	for i := range mac {
		mac[i] = byte(0x40 + i)
	}
	c.send.setKeys(key[:], mac[:])
	c.send.seq = 41
	return c
}

// peerOf returns the receiving end of a goldenChannel: its receive state
// (keys and sequence number) is the sender's, reading from raw. The two
// share the MAC state, so c must not seal while the peer opens.
func peerOf(c *Channel, raw []byte) *Channel {
	return &Channel{rw: rwShim{bytes.NewReader(raw), io.Discard}, recv: c.send}
}

// TestRecordGoldenBytes pins the record bytes — a 19-byte data record
// then an empty rekey-ack record — under fixed keys and sequence numbers,
// so a record-layer rewrite stays bit-identical on the wire.
func TestRecordGoldenBytes(t *testing.T) {
	const want = "0000000013a4b9ce41a73a3396666e089650c2871e3dc035721693e655fe41d4cce678ac2f5b7634" +
		"02000000005f1f1eb01dd2738fa6bbc2bf563a8117"
	var wire bytes.Buffer
	c := goldenChannel(&wire)
	if err := c.sealRecord(recordData, []byte("golden record layer")); err != nil {
		t.Fatal(err)
	}
	if err := c.sealRecord(recordRekeyAck, nil); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(wire.Bytes()); got != want {
		t.Errorf("record bytes\n got %s\nwant %s", got, want)
	}

	r := peerOf(goldenChannel(io.Discard), wire.Bytes())
	typ, msg, err := r.openRecord()
	if err != nil || typ != recordData || string(msg) != "golden record layer" {
		t.Errorf("opened (%d, %q, %v)", typ, msg, err)
	}
}

// countingWriter keeps what is written and counts the Write calls.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestSealRecordOneWrite pins one transport Write per sealed record, at
// every size from empty to the 22 KB aggregation SUBMIT.
func TestSealRecordOneWrite(t *testing.T) {
	for _, size := range []int{0, 1, 64, 16 << 10, 22 << 10} {
		var w countingWriter
		c := goldenChannel(&w)
		if err := c.Send(make([]byte, size)); err != nil {
			t.Fatal(err)
		}
		if w.writes != 1 {
			t.Errorf("%d-byte record: %d writes, want 1", size, w.writes)
		}
	}
}

// TestRecordTamperEveryByte flips each authenticated byte of a sealed
// record in turn — the type byte, every ciphertext byte and every tag
// byte — and requires the MAC check to refuse it.
func TestRecordTamperEveryByte(t *testing.T) {
	var wire bytes.Buffer
	c := goldenChannel(&wire)
	if err := c.sealRecord(recordData, []byte("tamper with any byte of me")); err != nil {
		t.Fatal(err)
	}
	raw := wire.Bytes()
	for i := range raw {
		if i >= 1 && i < recordHdrLen {
			continue // a flipped length misframes the record and fails the read first
		}
		bad := bytes.Clone(raw)
		bad[i] ^= 0x01
		_, _, err := peerOf(goldenChannel(io.Discard), bad).openRecord()
		if err == nil || err.Error() != "protocol: record authentication failed" {
			t.Errorf("flipped byte %d: err = %v", i, err)
		}
	}
}

// allocSink keeps the negative control's allocation on the heap.
var allocSink []byte

// perRecord returns f's mean heap allocations (testing.AllocsPerRun) and
// allocated bytes (runtime.MemStats.TotalAlloc) per call over runs calls.
func perRecord(runs int, f func()) (allocs, bytes float64) {
	allocs = testing.AllocsPerRun(runs, f)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestRecordAllocsIndependentOfSize pins the steady-state cost of the
// record layer: sealRecord and openRecord each make at
// most two allocations per record (the per-IV CTR stream) and allocate
// under 1 KiB, for a 64-byte record and a 22 KB SUBMIT alike — so no
// allocation scales with the record. A negative control in the same
// measurement shows that a record-sized make would be caught.
func TestRecordAllocsIndependentOfSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	const runs = 200
	const maxAllocs, maxBytes, controlBound = 2, 1 << 10, 16 << 10
	for _, size := range []int{64, 22 << 10} {
		msg := bytes.Repeat([]byte{0xA5}, size)
		var wire bytes.Buffer
		c := goldenChannel(&wire)
		if err := c.sealRecord(recordData, msg); err != nil {
			t.Fatal(err)
		}
		raw := bytes.Clone(wire.Bytes())

		c.rw = rwShim{bytes.NewReader(nil), io.Discard}
		sealAllocs, sealBytes := perRecord(runs, func() {
			if err := c.sealRecord(recordData, msg); err != nil {
				t.Fatal(err)
			}
		})

		// Reopen the same record: rewinding the reader and the receive
		// sequence number gives the peer identical work every call.
		src := bytes.NewReader(raw)
		r := peerOf(goldenChannel(io.Discard), nil)
		r.rw = rwShim{src, io.Discard}
		open := func() {
			src.Reset(raw)
			r.recv.seq = 41
			if _, got, err := r.openRecord(); err != nil || len(got) != size {
				t.Fatalf("open: %d bytes, %v", len(got), err)
			}
		}
		openAllocs, openBytes := perRecord(runs, open)

		t.Logf("%d-byte record: seal %.1f allocs %.0f B, open %.1f allocs %.0f B",
			size, sealAllocs, sealBytes, openAllocs, openBytes)
		for _, m := range []struct {
			op            string
			allocs, bytes float64
		}{{"sealRecord", sealAllocs, sealBytes}, {"openRecord", openAllocs, openBytes}} {
			if m.allocs > maxAllocs || m.bytes >= maxBytes {
				t.Errorf("%s, %d-byte record: %.1f allocs and %.0f B per record, want ≤ %d and < %d B",
					m.op, size, m.allocs, m.bytes, maxAllocs, maxBytes)
			}
		}

		if size < controlBound {
			continue
		}
		// Negative control: the same measurement with a record-sized make
		// added back must read at least the record length, and so fail the
		// 16 KiB bound.
		_, ctlBytes := perRecord(runs, func() {
			open()
			allocSink = make([]byte, len(raw))
		})
		if ctlBytes < float64(len(raw)) {
			t.Errorf("control: a record-sized make measured %.0f B per record, want ≥ %d B", ctlBytes, len(raw))
		}
	}
}

// TestRecordBufferGrows sends a 64-byte record, then one of maxRecordLen,
// then 64 bytes again, so the pooled buffers grow and are resliced back
// down; every record must round-trip intact.
func TestRecordBufferGrows(t *testing.T) {
	var wire bytes.Buffer
	c := goldenChannel(&wire)
	sizes := []int{64, maxRecordLen, 64}
	msgs := make([][]byte, len(sizes))
	for i, size := range sizes {
		msgs[i] = make([]byte, size)
		for j := range msgs[i] {
			msgs[i][j] = byte(j*7 + i)
		}
	}
	// Seal and open in lock step, so a buffer the receiver releases can
	// come back to the sender and the other way round.
	r := peerOf(goldenChannel(io.Discard), nil)
	r.rw = rwShim{&wire, io.Discard}
	for i, msg := range msgs {
		if err := c.sealRecord(recordData, msg); err != nil {
			t.Fatal(err)
		}
		_, got, err := r.openRecord()
		if err != nil || !bytes.Equal(got, msg) {
			t.Fatalf("record %d (%d bytes): got %d bytes, %v", i, len(msg), len(got), err)
		}
	}
}

// TestRecordTamperedTagThenValid pins that a failed tag check leaves the
// cached MAC state and the pool usable: after a record with a flipped tag
// byte is refused, the untampered record still opens — on the same peer,
// which read both from one stream, and on a fresh one.
func TestRecordTamperedTagThenValid(t *testing.T) {
	var wire bytes.Buffer
	c := goldenChannel(&wire)
	if err := c.sealRecord(recordData, []byte("authentic")); err != nil {
		t.Fatal(err)
	}
	good := bytes.Clone(wire.Bytes())
	bad := bytes.Clone(good)
	bad[len(bad)-1] ^= 0x80

	r := peerOf(goldenChannel(io.Discard), append(bad, good...))
	if _, _, err := r.openRecord(); err == nil {
		t.Fatal("tampered tag accepted")
	}
	if r.rbuf != nil {
		t.Error("a refused record kept its buffer")
	}
	for name, peer := range map[string]*Channel{
		"same peer":  r,
		"fresh peer": peerOf(goldenChannel(io.Discard), good),
	} {
		if _, msg, err := peer.openRecord(); err != nil || string(msg) != "authentic" {
			t.Errorf("%s: opened (%q, %v)", name, msg, err)
		}
	}
}

// TestRecordPoolConcurrentChannels runs echo traffic of mixed sizes on
// two channels at once, so their seals and opens share the record pool
// concurrently; run with -race.
func TestRecordPoolConcurrentChannels(t *testing.T) {
	var wg sync.WaitGroup
	for ch := 0; ch < 2; ch++ {
		client, server := handshakePair(t, ringlwe.P1())
		wg.Add(2)
		go func() {
			defer wg.Done()
			for {
				msg, err := server.Recv()
				if err != nil {
					return
				}
				if err := server.Send(msg); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			defer client.rw.(net.Conn).Close()
			for i, size := range []int{64, 22 << 10, 1, 16 << 10, 0, 4096, 22 << 10, 64} {
				msg := bytes.Repeat([]byte{byte(ch*16 + i)}, size)
				if err := client.Send(msg); err != nil {
					t.Error(err)
					return
				}
				got, err := client.Recv()
				if err != nil || !bytes.Equal(got, msg) {
					t.Errorf("channel %d, record %d: echo of %d bytes came back as %d bytes, %v",
						ch, i, size, len(got), err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRecvSliceSurvivesRekeyingSend pins the Recv lifetime rule across a
// client Send that rekeys first: the records the rekey flight reads must
// not recycle the buffer the last Recv returned, which stays valid until
// the next Recv. The test scribbles over every buffer left in the pool
// before checking the slice.
func TestRecvSliceSurvivesRekeyingSend(t *testing.T) {
	client, server := handshakePair(t, ringlwe.P1(), WithRekeyAfter(1))
	const want = "valid until the next Recv"
	done := make(chan error, 1)
	go func() {
		if err := server.Send([]byte(want)); err != nil {
			done <- err
			return
		}
		_, err := server.Recv() // serves the rekey, then reads "next"
		done <- err
	}()
	msg, err := client.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Send([]byte("next")); err != nil { // rekeys first
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if client.Rekeys != 1 {
		t.Fatalf("client rekeyed %d times, want 1", client.Rekeys)
	}
	for i := 0; i < 64; i++ {
		bp := recordBufs.Get().(*[]byte)
		if cap(*bp) == 0 {
			break
		}
		b := (*bp)[:cap(*bp)]
		for j := range b {
			b[j] = 0xFF
		}
	}
	if string(msg) != want {
		t.Errorf("Recv slice became %q after a rekeying Send", msg)
	}
}
