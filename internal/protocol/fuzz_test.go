package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"

	"ringlwe"
)

// FuzzHandshake throws arbitrary first flights at every handshake entry
// point — the multi-tenant server and the three client variants (whose
// peer bytes the fuzzer controls). Nothing may panic: truncated,
// corrupted and kind-confused flights must all surface as errors, and a
// lucky valid prefix must complete or fail cleanly. The server must
// refuse every non-empty first flight that does not open with an 8-byte
// v2 hello as errBadHello.
func FuzzHandshake(f *testing.F) {
	// The former v1 P1 and P2 hellos, which the server must refuse.
	f.Add([]byte{0x52, 0x4C, 1, 0})
	f.Add([]byte{0x52, 0x4C, 2, 0})
	// Valid v2 hellos.
	f.Add([]byte{0x52, 0x4C, 0xFF, 2, 0, 1, 0, 0})
	f.Add([]byte{0x52, 0x4C, 0xFF, 2, 0, 2, 0, 0})
	f.Add([]byte{0x52, 0x4C, 0xFF, 2, 0, 0, 0, 0})
	// Resume-flagged hellos: truncated, zero-length ticket, garbage
	// ticket of plausible length, oversized length prefix.
	f.Add([]byte{0x52, 0x4C, 0xFF, 2, 0, 1, 0x03, 0})
	f.Add([]byte{0x52, 0x4C, 0xFF, 2, 0, 1, 0x03, 0, 0, 0})
	garbageResume := []byte{0x52, 0x4C, 0xFF, 2, 0, 1, 0x03, 0, 0, 79}
	garbageResume = append(garbageResume, make([]byte, 79+16)...)
	f.Add(garbageResume)
	f.Add([]byte{0x52, 0x4C, 0xFF, 2, 0, 1, 0x03, 0, 0xFF, 0xFF})
	// Unknown ID, wrong version, bad magic, short.
	f.Add([]byte{0x52, 0x4C, 0xFF, 2, 0xBE, 0xEF, 0, 0})
	f.Add([]byte{0x52, 0x4C, 0xFF, 9, 0, 1, 0, 0})
	f.Add([]byte{'X', 'Y', 1, 0})
	f.Add([]byte{0x52})

	// Kind confusion for the server: a full valid client flight whose
	// encapsulation is replaced by a public-key blob; and the valid flight
	// itself so the corpus reaches the KEM stage.
	seedScheme := ringlwe.NewDeterministic(ringlwe.P1(), 8001)
	seedPK, _, err := seedScheme.GenerateKeys()
	if err != nil {
		f.Fatal(err)
	}
	ek, _, err := seedScheme.Encapsulate(seedPK)
	if err != nil {
		f.Fatal(err)
	}
	ekBlob, err := ek.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	pkBlob, err := seedPK.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	hello2 := []byte{0x52, 0x4C, 0xFF, 2, 0, 1, 0, 0}
	f.Add(append(append([]byte{}, hello2...), ekBlob...))
	f.Add(append(append([]byte{}, hello2...), pkBlob...))
	f.Add(append(append([]byte{}, hello2...), ekBlob[:37]...))

	// Server flights for the client paths: status ‖ pk blob, the raw
	// legacy key bytes the retired v1 server sent, and kind-confused
	// variants.
	f.Add(append([]byte{statusOK}, pkBlob...))
	f.Add(append([]byte{statusOK}, ekBlob...))
	f.Add([]byte{statusReject})
	f.Add(seedPK.Bytes())
	// Complete server flights: status ‖ pk blob ‖ status runs the client
	// paths to an established channel; the legacy equivalent must fail.
	f.Add(append(append([]byte{statusOK}, pkBlob...), statusOK))
	f.Add(append(seedPK.Bytes(), statusOK))

	// Resume-accepted and resume-fallback server flights for the
	// ClientResume path: statusOK ‖ server random ‖ ticket blob, and
	// statusFallback ‖ pk blob ‖ statusOK.
	resumeOK := append([]byte{statusOK}, make([]byte, randomLen)...)
	resumeOK = append(resumeOK, 0, 8+3, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3)
	f.Add(resumeOK)
	f.Add(append(append([]byte{statusFallback}, pkBlob...), statusOK))

	srv := newTestServer(f, ringlwe.P1(), ringlwe.P2())
	clientScheme := ringlwe.NewDeterministic(ringlwe.P1(), 8002)
	resumeSes := &Session{
		scheme: clientScheme,
		pk:     seedPK,
		ticket: make([]byte, 79),
		expiry: time.Now().Add(time.Hour),
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Server side: data is everything the client sends.
		ch, err := srv.Handshake(rwShim{bytes.NewReader(data), io.Discard})
		if err == nil && ch == nil {
			t.Fatal("nil channel without error")
		}
		v2Hello := len(data) >= helloV2Len &&
			binary.BigEndian.Uint16(data) == helloMagic && data[2] == helloV2Marker && data[3] == protocolV2
		if len(data) > 0 && !v2Hello && !errors.Is(err, errBadHello) {
			t.Fatalf("first flight % x: err = %v, want errBadHello", data[:min(len(data), helloV2Len)], err)
		}
		// Client sides: data is everything the server sends.
		if ch, err := Client(rwShim{bytes.NewReader(data), io.Discard}, clientScheme); err == nil && ch == nil {
			t.Fatal("nil channel without error")
		}
		if ch, err := ClientAuto(rwShim{bytes.NewReader(data), io.Discard}); err == nil && ch == nil {
			t.Fatal("nil channel without error")
		}
		if ch, err := ClientResume(rwShim{bytes.NewReader(data), io.Discard}, resumeSes); err == nil && ch == nil {
			t.Fatal("nil channel without error")
		}
	})
}
