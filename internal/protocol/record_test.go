package protocol

import (
	"bytes"
	"encoding/hex"
	"io"
	"testing"
)

// goldenChannel returns a channel of the given version with fixed send
// keys and sequence number 41, writing to w.
func goldenChannel(version int, w io.Writer) *Channel {
	c := &Channel{rw: rwShim{bytes.NewReader(nil), w}, version: version, sendSeq: 41}
	for i := range c.sendKey {
		c.sendKey[i] = byte(i)
	}
	for i := range c.sendMAC {
		c.sendMAC[i] = byte(0x40 + i)
	}
	return c
}

// peerOf returns the receiving end of a goldenChannel: its receive keys
// and sequence number are the sender's, reading from raw.
func peerOf(c *Channel, raw []byte) *Channel {
	return &Channel{
		rw: rwShim{bytes.NewReader(raw), io.Discard}, version: c.version,
		recvKey: c.sendKey, recvMAC: c.sendMAC, recvSeq: c.sendSeq,
	}
}

// TestRecordGoldenBytes pins the v1 and v2 record bytes — a 19-byte data
// record then an empty rekey-ack record — under fixed keys and sequence
// numbers, so a record-layer rewrite stays bit-identical on the wire.
func TestRecordGoldenBytes(t *testing.T) {
	golden := map[int]string{
		protocolV1: "00000013a4b9ce41a73a3396666e089650c2871e3dc03557f6c1bbc658eee4b723a56ba7c999c7" +
			"000000001be9b4547dbe63c8a661d2d5324ba778",
		protocolV2: "0000000013a4b9ce41a73a3396666e089650c2871e3dc035721693e655fe41d4cce678ac2f5b7634" +
			"02000000005f1f1eb01dd2738fa6bbc2bf563a8117",
	}
	for version, want := range golden {
		var wire bytes.Buffer
		c := goldenChannel(version, &wire)
		if err := c.sealRecord(recordData, []byte("golden record layer")); err != nil {
			t.Fatal(err)
		}
		if err := c.sealRecord(recordRekeyAck, nil); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(wire.Bytes()); got != want {
			t.Errorf("v%d record bytes\n got %s\nwant %s", version, got, want)
		}

		r := peerOf(goldenChannel(version, io.Discard), wire.Bytes())
		typ, msg, err := r.openRecord()
		if err != nil || typ != recordData || string(msg) != "golden record layer" {
			t.Errorf("v%d: opened (%d, %q, %v)", version, typ, msg, err)
		}
	}
}

// countingWriter counts Write calls.
type countingWriter struct{ writes int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return len(p), nil
}

// TestSealRecordOneWrite pins one transport Write per sealed record, at
// every size from empty to the 22 KB aggregation SUBMIT.
func TestSealRecordOneWrite(t *testing.T) {
	for _, version := range []int{protocolV1, protocolV2} {
		for _, size := range []int{0, 1, 64, 16 << 10, 22 << 10} {
			var w countingWriter
			c := goldenChannel(version, &w)
			if err := c.Send(make([]byte, size)); err != nil {
				t.Fatal(err)
			}
			if w.writes != 1 {
				t.Errorf("v%d, %d-byte record: %d writes, want 1", version, size, w.writes)
			}
		}
	}
}

// TestRecordTamperEveryByte flips each authenticated byte of a sealed
// record in turn — the v2 type byte, every ciphertext byte and every tag
// byte — and requires the MAC check to refuse it.
func TestRecordTamperEveryByte(t *testing.T) {
	for _, version := range []int{protocolV1, protocolV2} {
		var wire bytes.Buffer
		c := goldenChannel(version, &wire)
		if err := c.sealRecord(recordData, []byte("tamper with any byte of me")); err != nil {
			t.Fatal(err)
		}
		raw := wire.Bytes()
		n := c.hdrLen()
		for i := range raw {
			if i >= n-4 && i < n {
				continue // a flipped length misframes the record and fails the read first
			}
			bad := bytes.Clone(raw)
			bad[i] ^= 0x01
			_, _, err := peerOf(goldenChannel(version, io.Discard), bad).openRecord()
			if err == nil || err.Error() != "protocol: record authentication failed" {
				t.Errorf("v%d: flipped byte %d: err = %v", version, i, err)
			}
		}
	}
}
