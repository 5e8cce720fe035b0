package protocol

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"ringlwe"
)

// rwShim pairs a reader with a writer to satisfy io.ReadWriter in tests.
type rwShim struct {
	io.Reader
	io.Writer
}

// newTestServer builds a Server with one deterministic tenant per
// parameter set, in order (the first is the default tenant).
func newTestServer(t testing.TB, params ...*ringlwe.Params) *Server {
	t.Helper()
	srv := NewServer()
	for i, p := range params {
		scheme := ringlwe.NewDeterministic(p, 1001+uint64(i))
		pk, sk, err := scheme.GenerateKeys()
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.AddTenant(scheme, pk, sk); err != nil {
			t.Fatal(err)
		}
	}
	return srv
}

// handshakePair establishes a v2 channel over an in-memory duplex pipe
// against a P1+P2 server.
func handshakePair(t *testing.T, params *ringlwe.Params, opts ...Option) (client, server *Channel) {
	t.Helper()
	srv := newTestServer(t, ringlwe.P1(), ringlwe.P2())
	clientScheme := ringlwe.NewDeterministic(params, 2002)

	cConn, sConn := net.Pipe()
	var wg sync.WaitGroup
	var sErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		server, sErr = srv.Handshake(sConn)
	}()
	client, cErr := Client(cConn, clientScheme, opts...)
	wg.Wait()
	if cErr != nil || sErr != nil {
		t.Fatalf("handshake: client=%v server=%v", cErr, sErr)
	}
	return client, server
}

func TestHandshakeAndRecords(t *testing.T) {
	for _, params := range []*ringlwe.Params{ringlwe.P1(), ringlwe.P2()} {
		client, server := handshakePair(t, params)
		if client.Params().Name() != params.Name() || server.Params().Name() != params.Name() {
			t.Fatalf("%s: negotiated params %s/%s", params.Name(), client.Params().Name(), server.Params().Name())
		}

		// Bidirectional traffic with interleaving.
		msgs := [][]byte{
			[]byte("hello from client"),
			bytes.Repeat([]byte("bulk "), 1000),
			{},
			{0x00, 0xFF, 0x80},
		}
		done := make(chan error, 1)
		go func() {
			for _, want := range msgs {
				got, err := server.Recv()
				if err != nil {
					done <- err
					return
				}
				if !bytes.Equal(got, want) {
					done <- bytes.ErrTooLarge // sentinel misuse is fine in-test
					return
				}
				if err := server.Send(append([]byte("ack:"), got...)); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		for _, m := range msgs {
			if err := client.Send(m); err != nil {
				t.Fatal(err)
			}
			ack, err := client.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ack, append([]byte("ack:"), m...)) {
				t.Fatalf("%s: bad ack", params.Name())
			}
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestClientAuto pins the header-driven negotiation: the client commits to
// no parameter set, recovers the server's default from the public-key
// blob's header, and builds its scheme from the registered-params table.
func TestClientAuto(t *testing.T) {
	srv := newTestServer(t, ringlwe.P2(), ringlwe.P1()) // default: P2
	cConn, sConn := net.Pipe()
	go srv.Handshake(sConn)
	client, err := ClientAuto(cConn)
	if err != nil {
		t.Fatal(err)
	}
	if client.Params().Name() != "P2" {
		t.Fatalf("auto client negotiated %s, want the server default P2", client.Params().Name())
	}
}

// TestRekey drives the in-band epoch roll: with WithRekeyAfter(3) the
// client rekeys transparently during a longer exchange and traffic keeps
// flowing across epochs on both sides.
func TestRekey(t *testing.T) {
	client, server := handshakePair(t, ringlwe.P1(), WithRekeyAfter(3))
	done := make(chan error, 1)
	const rounds = 12
	go func() {
		for i := 0; i < rounds; i++ {
			msg, err := server.Recv()
			if err != nil {
				done <- err
				return
			}
			if err := server.Send(msg); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < rounds; i++ {
		want := []byte{byte(i), 0xA5, byte(i * 7)}
		if err := client.Send(want); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		got, err := client.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d echoed %x, want %x", i, got, want)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if client.Rekeys == 0 {
		t.Error("client completed no rekeys over 12 rounds with RekeyAfter(3)")
	}
	if client.Rekeys != server.Rekeys {
		t.Errorf("rekey counts diverge: client %d, server %d", client.Rekeys, server.Rekeys)
	}
	if client.epoch == 0 || client.epoch != server.epoch {
		t.Errorf("epochs diverge: client %d, server %d", client.epoch, server.epoch)
	}
}

// TestParamsMismatchRejected pins the negotiation failure mode: a client
// requesting a set the server does not hold gets a clean reject wrapping
// ErrParamsMismatch on both sides, not an EOF.
func TestParamsMismatchRejected(t *testing.T) {
	srv := newTestServer(t, ringlwe.P1()) // P1 only
	clientScheme := ringlwe.NewDeterministic(ringlwe.P2(), 4002)
	cConn, sConn := net.Pipe()
	sErrCh := make(chan error, 1)
	go func() {
		_, err := srv.Handshake(sConn)
		sErrCh <- err
	}()
	_, cErr := Client(cConn, clientScheme)
	sErr := <-sErrCh
	if !errors.Is(cErr, ringlwe.ErrParamsMismatch) {
		t.Errorf("client error %v, want ErrParamsMismatch", cErr)
	}
	if !errors.Is(sErr, ringlwe.ErrParamsMismatch) {
		t.Errorf("server error %v, want ErrParamsMismatch", sErr)
	}
}

// TestCrossParamsEncapsulationRejected pins the bugfix satellite: a
// client that negotiates P1 but then smuggles a P2-set encapsulation blob
// must be refused with ErrParamsMismatch — the read is validated against
// the negotiated set, not just against whatever the blob claims.
func TestCrossParamsEncapsulationRejected(t *testing.T) {
	srv := newTestServer(t, ringlwe.P1(), ringlwe.P2())
	cConn, sConn := net.Pipe()
	sErrCh := make(chan error, 1)
	go func() {
		_, err := srv.Handshake(sConn)
		sErrCh <- err
	}()

	// Hand-rolled malicious client: negotiate P1, encapsulate under P2.
	var hello [helloV2Len]byte
	hello[0], hello[1] = 0x52, 0x4C
	hello[2] = helloV2Marker
	hello[3] = protocolV2
	hello[5] = 1 // P1
	if _, err := cConn.Write(hello[:]); err != nil {
		t.Fatal(err)
	}
	var status [1]byte
	if _, err := io.ReadFull(cConn, status[:]); err != nil || status[0] != statusOK {
		t.Fatalf("hello status: %v %d", err, status[0])
	}
	if _, err := ringlwe.ReadAnyPublicKeyFrom(cConn); err != nil {
		t.Fatal(err)
	}
	p2scheme := ringlwe.NewDeterministic(ringlwe.P2(), 4010)
	p2pk, _, err := p2scheme.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	ek, _, err := p2scheme.Encapsulate(p2pk)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ek.WriteTo(cConn); err != nil {
		t.Fatal(err)
	}
	if sErr := <-sErrCh; !errors.Is(sErr, ringlwe.ErrParamsMismatch) {
		t.Errorf("server error %v, want ErrParamsMismatch", sErr)
	}
}

// TestMalformedHellos walks the first-flight failure modes. Each is
// counted as a rejected hello; every hello that is not an 8-byte v2 hello,
// the former v1 P1 and P2 hellos among them, fails as errBadHello before
// the server writes a byte, so no tenant lookup or KEM work runs.
func TestMalformedHellos(t *testing.T) {
	srv := newTestServer(t, ringlwe.P1(), ringlwe.P2())
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, io.EOF},
		{"bad magic", []byte{'X', 'Y', 1, 0}, errBadHello},
		{"truncated", []byte{0x52, 0x4C}, errBadHello},
		{"v1 P1", []byte{0x52, 0x4C, 1, 0}, errBadHello},
		{"v1 P2", []byte{0x52, 0x4C, 2, 0}, errBadHello},
		{"v1 P1 padded to 8 bytes", []byte{0x52, 0x4C, 1, 0, 0, 0, 0, 0}, errBadHello},
		{"v1 nonzero pad", []byte{0x52, 0x4C, 1, 7}, errBadHello},
		{"v1 custom tag", []byte{0x52, 0x4C, 0, 0}, errBadHello},
		{"v2 bad version", []byte{0x52, 0x4C, 0xFF, 9, 0, 1, 0, 0}, errBadHello},
		{"v2 truncated id", []byte{0x52, 0x4C, 0xFF, 2, 0}, errBadHello},
		{"v2 unknown id", []byte{0x52, 0x4C, 0xFF, 2, 0xBE, 0xEF, 0, 0}, ringlwe.ErrParamsMismatch},
	}
	for i, tc := range cases {
		var w countingWriter
		_, err := srv.Handshake(rwShim{bytes.NewReader(tc.data), &w})
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if tc.want == errBadHello && w.writes != 0 {
			t.Errorf("%s: server wrote %d times to a bad hello", tc.name, w.writes)
		}
		if got := srv.Stats().Rejected; got != uint64(i+1) {
			t.Errorf("%s: rejected counter %d, want %d", tc.name, got, i+1)
		}
	}
}

func TestRecordTampering(t *testing.T) {
	client, server := handshakePair(t, ringlwe.P1())
	// Tamper in flight: intercept with a buffer. The sender shares the
	// client's send state; the client itself sends nothing more.
	var wire bytes.Buffer
	tampered := &Channel{rw: &wire, send: client.send}
	if err := tampered.Send([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	raw := wire.Bytes()
	raw[6] ^= 1 // flip a ciphertext bit

	server.rw = rwShim{bytes.NewReader(raw), io.Discard}
	if _, err := server.Recv(); err == nil {
		t.Fatal("tampered record accepted")
	}
	_ = client
}

// TestRecordTypeTampering pins that the v2 type byte is authenticated: a
// data record rewritten as a rekey record must fail the MAC, not reach
// the rekey path.
func TestRecordTypeTampering(t *testing.T) {
	client, server := handshakePair(t, ringlwe.P1())
	var wire bytes.Buffer
	sender := &Channel{rw: &wire, send: client.send}
	if err := sender.Send([]byte("data")); err != nil {
		t.Fatal(err)
	}
	raw := wire.Bytes()
	raw[0] = recordRekey
	server.rw = rwShim{bytes.NewReader(raw), io.Discard}
	if _, err := server.Recv(); err == nil {
		t.Fatal("type-flipped record accepted")
	}
}

func TestReplayRejected(t *testing.T) {
	client, server := handshakePair(t, ringlwe.P1())
	var wire bytes.Buffer
	sender := &Channel{rw: &wire, send: client.send}
	if err := sender.Send([]byte("once")); err != nil {
		t.Fatal(err)
	}
	record := append([]byte(nil), wire.Bytes()...)

	// First delivery succeeds.
	server.rw = rwShim{bytes.NewReader(record), io.Discard}
	if _, err := server.Recv(); err != nil {
		t.Fatal(err)
	}
	// Replaying the identical bytes must fail: the receive sequence moved.
	server.rw = rwShim{bytes.NewReader(record), io.Discard}
	if _, err := server.Recv(); err == nil {
		t.Fatal("replayed record accepted")
	}
}

func TestOversizedRecordRejected(t *testing.T) {
	client, _ := handshakePair(t, ringlwe.P1())
	if err := client.Send(make([]byte, maxRecordLen+1)); err == nil {
		t.Fatal("oversized send accepted")
	}
	// A forged oversized header must be rejected before allocation.
	ch := &Channel{rw: rwShim{bytes.NewReader([]byte{recordData, 0xFF, 0xFF, 0xFF, 0xFF}), io.Discard}}
	if _, err := ch.Recv(); err == nil {
		t.Fatal("oversized header accepted")
	}
}

// Retry exhaustion: a server holding the wrong private key rejects every
// encapsulation; the client must give up after maxRetries instead of
// looping forever.
func TestRetryExhaustion(t *testing.T) {
	params := ringlwe.P1()
	scheme := ringlwe.NewDeterministic(params, 5001)
	pk, _, err := scheme.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	_, wrongSk, err := scheme.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer()
	if err := srv.AddTenant(scheme, pk, wrongSk); err != nil {
		t.Fatal(err)
	}

	cConn, sConn := net.Pipe()
	serverDone := make(chan error, 1)
	go func() {
		_, err := srv.Handshake(sConn)
		serverDone <- err
	}()
	clientScheme := ringlwe.NewDeterministic(params, 5002)
	_, cErr := Client(cConn, clientScheme)
	sErr := <-serverDone
	if cErr == nil && sErr == nil {
		t.Fatal("handshake with a mismatched private key succeeded")
	}
}

// keyID fingerprints a direction's epoch keys: the AES encryption of the
// zero block followed by the HMAC of the empty message.
func keyID(s *recordState) string {
	var blk [16]byte
	s.block.Encrypt(blk[:], blk[:])
	s.mac.Reset()
	return string(s.mac.Sum(blk[:]))
}

func TestDirectionKeysDiffer(t *testing.T) {
	client, server := handshakePair(t, ringlwe.P1())
	if keyID(&client.send) == keyID(&client.recv) {
		t.Error("client directions share a key")
	}
	if keyID(&client.send) != keyID(&server.recv) || keyID(&client.recv) != keyID(&server.send) {
		t.Error("client/server directional keys do not pair up")
	}
}

// TestRekeyBuffersInFlightData pins the crossing-traffic case: data
// records the server pushed before processing a rekey (sealed under the
// old epoch, delivered ahead of the ack by per-direction FIFO ordering)
// are buffered and delivered by later Recvs, not treated as a protocol
// error. Needs a buffered transport, so it runs over loopback TCP.
func TestRekeyBuffersInFlightData(t *testing.T) {
	srv := newTestServer(t, ringlwe.P1())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	defer ln.Close()

	serverDone := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			serverDone <- err
			return
		}
		defer conn.Close()
		ch, err := srv.Handshake(conn)
		if err != nil {
			serverDone <- err
			return
		}
		if _, err := ch.Recv(); err != nil { // "A"
			serverDone <- err
			return
		}
		// Unsolicited pushes: these land on the client while it is
		// waiting for the rekey ack triggered by its next Send.
		if err := ch.Send([]byte("push-1")); err != nil {
			serverDone <- err
			return
		}
		if err := ch.Send([]byte("push-2")); err != nil {
			serverDone <- err
			return
		}
		if _, err := ch.Recv(); err != nil { // rekey handled here, then "B"
			serverDone <- err
			return
		}
		serverDone <- nil
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	client, err := Client(conn, ringlwe.NewDeterministic(ringlwe.P1(), 7002), WithRekeyAfter(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Send([]byte("A")); err != nil {
		t.Fatal(err)
	}
	// Give the pushes time to land in the socket buffer so the rekey's
	// ack wait really does see them first.
	time.Sleep(50 * time.Millisecond)
	if err := client.Send([]byte("B")); err != nil { // triggers the rekey
		t.Fatal(err)
	}
	if client.Rekeys != 1 {
		t.Fatalf("client completed %d rekeys, want 1", client.Rekeys)
	}
	for i, want := range []string{"push-1", "push-2"} {
		got, err := client.Recv()
		if err != nil {
			t.Fatalf("draining push %d: %v", i+1, err)
		}
		if string(got) != want {
			t.Fatalf("push %d came back as %q, want %q", i+1, got, want)
		}
	}
	if err := <-serverDone; err != nil {
		t.Fatal(err)
	}
}

// TestEpochKeysDiffer pins the epoch domain separation and the per-epoch
// cipher state: a rekey rebuilds the cached cipher and MAC in both
// directions, records round-trip under the new epoch, and a record sealed
// under the old epoch's send state fails authentication even at the
// sequence number the receiver expects.
func TestEpochKeysDiffer(t *testing.T) {
	client, server := handshakePair(t, ringlwe.P1(), WithRekeyAfter(1))
	oldSend := client.send
	before := [2]string{keyID(&client.send), keyID(&client.recv)}
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 2; i++ {
			if _, err := server.Recv(); err != nil {
				done <- err
				return
			}
		}
		done <- server.Send([]byte("back"))
	}()
	if err := client.Send([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := client.Send([]byte("two")); err != nil { // triggers the rekey
		t.Fatal(err)
	}
	if msg, err := client.Recv(); err != nil || string(msg) != "back" {
		t.Fatalf("client got (%q, %v) under the new epoch", msg, err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	after := [2]string{keyID(&client.send), keyID(&client.recv)}
	for i, dir := range []string{"send", "receive"} {
		if after[i] == before[i] {
			t.Errorf("%s key unchanged across a rekey", dir)
		}
	}
	if after[0] != keyID(&server.recv) || after[1] != keyID(&server.send) {
		t.Error("post-rekey keys do not pair up")
	}

	var wire bytes.Buffer
	stale := &Channel{rw: &wire, send: oldSend}
	stale.send.seq = server.recv.seq
	if err := stale.sealRecord(recordData, []byte("old epoch")); err != nil {
		t.Fatal(err)
	}
	server.rw = rwShim{&wire, io.Discard}
	if _, err := server.Recv(); err == nil || err.Error() != "protocol: record authentication failed" {
		t.Fatalf("record sealed under the old epoch: err = %v", err)
	}
}
