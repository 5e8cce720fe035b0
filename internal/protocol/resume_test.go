package protocol

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ringlwe"
)

// dialTCP connects to a test server's address, registering cleanup.
func dialTCP(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// echo sends one message and requires it back unchanged.
func echo(t *testing.T, ch *Channel, msg string) {
	t.Helper()
	if err := ch.Send([]byte(msg)); err != nil {
		t.Fatalf("send: %v", err)
	}
	got, err := ch.Recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if string(got) != msg {
		t.Fatalf("echo mismatch: got %q want %q", got, msg)
	}
}

// TestResumeE2E walks the whole resumption lifecycle against a live
// sharded server: ticket issue on a full handshake, a resumed reconnect
// that skips the KEM flight, a rekey on the resumed session, a replayed
// ticket pushed into the full-handshake fallback, and a garbage ticket
// likewise. Run under -race in CI.
func TestResumeE2E(t *testing.T) {
	srv := newTestServer(t, ringlwe.P1(), ringlwe.P2())
	srv.handler = echoHandler
	addr, stop := startEchoServer(t, srv)
	t.Cleanup(stop)
	clientScheme := ringlwe.NewDeterministic(ringlwe.P1(), 7101)

	// Full handshake, ticket requested.
	full, err := Client(dialTCP(t, addr), clientScheme, WithSessionTicket())
	if err != nil {
		t.Fatal(err)
	}
	if full.Resumed() {
		t.Fatal("full handshake reported as resumed")
	}
	ses := full.Session()
	if !ses.Valid() {
		t.Fatal("full handshake with WithSessionTicket yielded no valid session")
	}
	if name := ses.scheme.Params().Name(); name != "P1" {
		t.Fatalf("session params %s, want P1", name)
	}
	echo(t, full, "over the full handshake")

	// Reconnect and resume; the resumed channel must carry traffic and a
	// replacement ticket.
	res, err := ClientResume(dialTCP(t, addr), ses, WithRekeyAfter(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resumed() {
		t.Fatal("ClientResume with a fresh ticket fell back to a full handshake")
	}
	if !res.Session().Valid() {
		t.Fatal("resumed channel carries no reissued ticket")
	}
	echo(t, res, "over the resumed channel")
	// WithRekeyAfter(1): the next send rolls the epoch first — a resumed
	// session rekeys against the server's long-term key like any other.
	echo(t, res, "after rekeying the resumed channel")
	if res.Rekeys < 1 {
		t.Fatalf("resumed channel performed %d rekeys, want ≥1", res.Rekeys)
	}

	// Replaying the consumed ticket must not establish a second resumed
	// session; the connection transparently downgrades to a full handshake
	// (and still works).
	replayed, err := ClientResume(dialTCP(t, addr), ses)
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Resumed() {
		t.Fatal("replayed ticket was accepted for resumption")
	}
	if !replayed.Session().Valid() {
		t.Fatal("fallback handshake issued no replacement ticket")
	}
	echo(t, replayed, "over the replay-fallback channel")

	// Garbage ticket: same downgrade, no panic, no resumption.
	garbage := &Session{
		scheme: clientScheme,
		pk:     ses.pk,
		ticket: make([]byte, 79),
		expiry: time.Now().Add(time.Hour),
	}
	gch, err := ClientResume(dialTCP(t, addr), garbage)
	if err != nil {
		t.Fatal(err)
	}
	if gch.Resumed() {
		t.Fatal("garbage ticket was accepted for resumption")
	}
	echo(t, gch, "over the garbage-fallback channel")

	st := srv.Stats()
	c := st.PerParams["P1"]
	if c.Resumed != 1 {
		t.Errorf("stats count %d resumptions, want 1: %s", c.Resumed, st)
	}
	if c.Handshakes != 3 {
		t.Errorf("stats count %d full handshakes, want 3: %s", c.Handshakes, st)
	}
	if c.TicketFallbacks != 2 {
		t.Errorf("stats count %d ticket fallbacks, want 2: %s", c.TicketFallbacks, st)
	}
	// Full + resume reissue + two fallback reissues.
	if c.TicketsIssued != 4 {
		t.Errorf("stats count %d tickets issued, want 4: %s", c.TicketsIssued, st)
	}
}

// TestResumeExpiredTicket pins the expiry path: a ticket older than the
// server's lifetime falls back to a full handshake.
func TestResumeExpiredTicket(t *testing.T) {
	srv := newTestServer(t, ringlwe.P1())
	srv.ticketLifetime = 50 * time.Millisecond // shortens issued-ticket expiry; keeper stays armed
	srv.handler = echoHandler
	addr, stop := startEchoServer(t, srv)
	t.Cleanup(stop)
	clientScheme := ringlwe.NewDeterministic(ringlwe.P1(), 7201)

	full, err := Client(dialTCP(t, addr), clientScheme, WithSessionTicket())
	if err != nil {
		t.Fatal(err)
	}
	ses := full.Session()
	if ses == nil {
		t.Fatal("no session issued")
	}
	time.Sleep(80 * time.Millisecond)
	if ses.Valid() {
		t.Fatal("session still valid past its expiry")
	}
	ch, err := ClientResume(dialTCP(t, addr), ses)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Resumed() {
		t.Fatal("expired ticket was accepted for resumption")
	}
	echo(t, ch, "over the expiry-fallback channel")
}

// TestResumeTicketsDisabled pins the declined-issuance path: with a zero
// ticket lifetime a client asking for a ticket gets a clean handshake and
// a nil session, byte-compatible with the ticketless flow.
func TestResumeTicketsDisabled(t *testing.T) {
	srv := NewServer(func(s *Server) { s.ticketLifetime = 0 })
	scheme := ringlwe.NewDeterministic(ringlwe.P1(), 7301)
	pk, sk, err := scheme.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddTenant(scheme, pk, sk); err != nil {
		t.Fatal(err)
	}
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	defer sConn.Close()
	sDone := make(chan error, 1)
	go func() {
		_, err := srv.Handshake(sConn)
		sDone <- err
	}()
	ch, err := Client(cConn, ringlwe.NewDeterministic(ringlwe.P1(), 7302), WithSessionTicket())
	if err != nil {
		t.Fatal(err)
	}
	if err := <-sDone; err != nil {
		t.Fatal(err)
	}
	if ch.Session() != nil {
		t.Fatal("ticket issued by a server with tickets disabled")
	}
}

// TestResumeMixedShardsConcurrent drives resumption across shards and
// parameter sets at once: every client completes a full ticketed
// handshake and then a resumed reconnect, P1 and P2 interleaved, on a
// 4-shard server. Run under -race in CI.
func TestResumeMixedShardsConcurrent(t *testing.T) {
	srv := NewServer(WithShards(4), WithHandler(echoHandler))
	for i, p := range []*ringlwe.Params{ringlwe.P1(), ringlwe.P2()} {
		scheme := ringlwe.NewDeterministic(p, 7401+uint64(i))
		pk, sk, err := scheme.GenerateKeys()
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.AddTenant(scheme, pk, sk); err != nil {
			t.Fatal(err)
		}
	}
	addr, stop := startEchoServer(t, srv)
	t.Cleanup(stop)

	const perParams = 4
	var wg sync.WaitGroup
	var resumedOK atomic.Uint64
	errc := make(chan error, 2*perParams)
	for i, p := range []*ringlwe.Params{ringlwe.P1(), ringlwe.P2()} {
		for j := 0; j < perParams; j++ {
			wg.Add(1)
			go func(p *ringlwe.Params, seed uint64) {
				defer wg.Done()
				scheme := ringlwe.NewDeterministic(p, seed)
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					errc <- err
					return
				}
				full, err := Client(conn, scheme, WithSessionTicket())
				if err != nil {
					conn.Close()
					errc <- fmt.Errorf("%s full: %w", p.Name(), err)
					return
				}
				if err := full.Send([]byte(p.Name())); err == nil {
					full.Recv()
				}
				conn.Close()
				if !full.Session().Valid() {
					errc <- fmt.Errorf("%s: no session issued", p.Name())
					return
				}
				conn2, err := net.Dial("tcp", addr)
				if err != nil {
					errc <- err
					return
				}
				defer conn2.Close()
				res, err := ClientResume(conn2, full.Session())
				if err != nil {
					errc <- fmt.Errorf("%s resume: %w", p.Name(), err)
					return
				}
				if res.Resumed() {
					resumedOK.Add(1)
				}
				if err := res.Send([]byte("resumed " + p.Name())); err != nil {
					errc <- err
					return
				}
				if _, err := res.Recv(); err != nil {
					errc <- err
				}
			}(p, 7500+uint64(i*perParams+j))
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if got := resumedOK.Load(); got != 2*perParams {
		t.Fatalf("%d of %d reconnects resumed", got, 2*perParams)
	}
	st := srv.Stats()
	if st.Shards != 4 {
		t.Fatalf("stats report %d shards, want 4", st.Shards)
	}
	var totalFull, totalResumed uint64
	for _, c := range st.PerParams {
		totalFull += c.Handshakes
		totalResumed += c.Resumed
	}
	if totalFull != 2*perParams || totalResumed != 2*perParams {
		t.Fatalf("stats count %d full + %d resumed, want %d each: %s",
			totalFull, totalResumed, 2*perParams, st)
	}
}

// TestServerHandshakeTimeout pins the slow-loris fix: a client that
// connects and stalls mid-hello is cut off by the handshake deadline
// instead of pinning a serving goroutine forever, and the server keeps
// serving real clients afterwards.
func TestServerHandshakeTimeout(t *testing.T) {
	srv := newTestServer(t, ringlwe.P1())
	srv.hsTimeout = 100 * time.Millisecond
	srv.handler = echoHandler
	addr, stop := startEchoServer(t, srv)
	t.Cleanup(stop)

	loris := dialTCP(t, addr)
	if _, err := loris.Write([]byte{0x52, 0x4C, 0xFF}); err != nil { // partial hello, then silence
		t.Fatal(err)
	}
	loris.SetReadDeadline(time.Now().Add(5 * time.Second))
	var one [1]byte
	start := time.Now()
	if _, err := loris.Read(one[:]); err == nil {
		t.Fatal("stalled connection was answered instead of dropped")
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Fatalf("stalled connection lingered %v; handshake deadline not enforced", waited)
	}

	// The deadline must not leak into established channels: a real client
	// still handshakes and can idle past the handshake timeout.
	ch, err := Client(dialTCP(t, addr), ringlwe.NewDeterministic(ringlwe.P1(), 7601))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	echo(t, ch, "still alive after the handshake deadline passed")
}

// flakyListener fails its first Accepts with a temporary error, then
// delivers queued connections; Close unblocks Accept permanently.
type flakyListener struct {
	tempFails int32
	conns     chan net.Conn
	done      chan struct{}
	closeOnce sync.Once
}

type tempError struct{}

func (tempError) Error() string   { return "synthetic temporary accept failure" }
func (tempError) Temporary() bool { return true }
func (tempError) Timeout() bool   { return false }

func (l *flakyListener) Accept() (net.Conn, error) {
	if atomic.AddInt32(&l.tempFails, -1) >= 0 {
		return nil, tempError{}
	}
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *flakyListener) Close() error {
	l.closeOnce.Do(func() { close(l.done) })
	return nil
}

func (l *flakyListener) Addr() net.Addr {
	return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0}
}

// TestServeSurvivesTemporaryAcceptErrors pins the accept-retry fix: a
// listener that throws temporary errors (EMFILE-style) no longer kills
// the serve loop — it backs off, retries, and completes the handshake
// that eventually arrives.
func TestServeSurvivesTemporaryAcceptErrors(t *testing.T) {
	srv := newTestServer(t, ringlwe.P1())
	srv.handler = echoHandler
	ln := &flakyListener{tempFails: 3, conns: make(chan net.Conn, 1), done: make(chan struct{})}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	cConn, sConn := net.Pipe()
	defer cConn.Close()
	ln.conns <- sConn

	ch, err := Client(cConn, ringlwe.NewDeterministic(ringlwe.P1(), 7701))
	if err != nil {
		t.Fatalf("handshake through flaky listener: %v", err)
	}
	echo(t, ch, "accepted after temporary failures")
	if remaining := atomic.LoadInt32(&ln.tempFails); remaining > 0 {
		t.Fatalf("accept loop skipped %d of the temporary failures", remaining)
	}

	cConn.Close()
	ctxDone := make(chan struct{})
	go func() {
		srv.Close()
		close(ctxDone)
	}()
	select {
	case <-ctxDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung against the flaky listener")
	}
	if err := <-serveDone; err != ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
}

// TestListenServeListeners exercises the kernel-sharded accept path
// (SO_REUSEPORT where available, single-listener fallback otherwise)
// end to end: bind with Listen, serve with ServeListeners, handshake a
// few clients, shut down.
func TestListenServeListeners(t *testing.T) {
	srv := NewServer(WithShards(2), WithHandler(echoHandler))
	scheme := ringlwe.NewDeterministic(ringlwe.P1(), 7801)
	pk, sk, err := scheme.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddTenant(scheme, pk, sk); err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback TCP unavailable: %v", err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.ServeListeners() }()

	var wg sync.WaitGroup
	errc := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr.String())
			if err != nil {
				errc <- err
				return
			}
			defer conn.Close()
			ch, err := Client(conn, ringlwe.NewDeterministic(ringlwe.P1(), seed))
			if err != nil {
				errc <- err
				return
			}
			if err := ch.Send([]byte("sharded")); err != nil {
				errc <- err
				return
			}
			if _, err := ch.Recv(); err != nil {
				errc <- err
			}
		}(7810 + uint64(i))
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-serveDone; err != ErrServerClosed {
		t.Fatalf("ServeListeners returned %v, want ErrServerClosed", err)
	}
	if n := srv.Stats().PerParams["P1"].Handshakes; n != 4 {
		t.Fatalf("stats count %d handshakes, want 4", n)
	}
}
