package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync/atomic"
	"time"

	"ringlwe"
	"ringlwe/internal/protocol"
)

// channel: the P1 secure channel over loopback TCP against an echo
// handler. Each client loops sessions: dial, handshake, echoesPerSession
// echo records, close. After a client's first session, 3 of every 4
// sessions resume with the ticket the previous one left, and 1 session in
// every 8 rekeys once inside the channel. Which session of each block
// runs full or rekeys, and every record's size and bytes, come from the
// seed.

const (
	chSession = iota // the operation: one whole session
	chFull
	chResumed
	chRecord
)

var channelKeys = []string{"session", "hs_full", "hs_resumed", "record_rtt"}

const (
	echoesPerSession = 8
	// chRekeyAfter makes a rekeying session roll its keys exactly once:
	// the rekey runs before the fifth echo (8 records in), and the three
	// echoes left add only 6 records at the new epoch.
	chRekeyAfter = 8
	// chWarm is the number of sessions each client runs during set-up.
	chWarm = 24
	// maxRecord is the largest echo record; sizes are the powers of two
	// from 64 B up to it.
	maxRecord = 16 << 10
)

// recordSizes lists the echo record sizes.
func recordSizes() []int {
	var s []int
	for n := 64; n <= maxRecord; n *= 2 {
		s = append(s, n)
	}
	return s
}

// echo is the server handler: every record comes straight back.
func echo(ch *protocol.Channel) {
	for {
		m, err := ch.Recv()
		if err != nil {
			return
		}
		if err := ch.Send(m); err != nil {
			return
		}
	}
}

// server is an in-process protocol server serving one tenant on loopback
// with one shard per client.
type server struct {
	srv  *protocol.Server
	addr string
	done chan error
}

func startServer(c config, p *ringlwe.Params, handler func(*protocol.Channel), bind func(*protocol.Server)) (*server, error) {
	opts := []protocol.ServerOption{protocol.WithShards(c.clients), protocol.WithHandler(handler)}
	if c.trace != nil {
		opts = append(opts, protocol.WithTracer(c.trace.serverHook()))
	}
	srv := protocol.NewServer(opts...)
	if bind != nil {
		bind(srv)
	}
	// The server's long-term key pair comes from the seed; the serving
	// scheme draws its KEM randomness from the operating system.
	pk, sk, err := ringlwe.NewDeterministic(p, c.seed).GenerateKeys()
	if err != nil {
		return nil, err
	}
	if err := srv.AddTenant(ringlwe.New(p), pk, sk); err != nil {
		return nil, err
	}
	addr, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: srv, addr: addr.String(), done: make(chan error, 1)}
	go func() { s.done <- s.srv.ServeListeners() }()
	return s, nil
}

func (s *server) close() error {
	if err := s.srv.Close(); err != nil {
		return err
	}
	if err := <-s.done; !errors.Is(err, protocol.ErrServerClosed) {
		return err
	}
	return nil
}

type channelEnv struct {
	srv     *server
	scheme  *ringlwe.Scheme
	clients []*chanClient

	mk *channelMark // traced runs: state at the window start
}

// chanClient is one client's session state: its seeded schedule, its
// ticket, and its payload bytes.
type chanClient struct {
	rng       *rand.Rand
	ses       *protocol.Session
	n         int // sessions started
	fullSlot  int // which session of the current block of 4 runs full
	rekeySlot int
	sizes     []int // seeded order of record sizes, cycled
	next      int
	payload   []byte
}

func setupChannel(c config) (env, error) {
	srv, err := startServer(c, ringlwe.P1(), echo, nil)
	if err != nil {
		return nil, err
	}
	e := &channelEnv{srv: srv, scheme: ringlwe.New(ringlwe.P1())}
	for i := 0; i < c.clients; i++ {
		rng := rand.New(rand.NewPCG(c.seed, uint64(i)+1))
		cl := &chanClient{rng: rng, sizes: recordSizes(), payload: make([]byte, maxRecord+64)}
		rng.Shuffle(len(cl.sizes), func(a, b int) { cl.sizes[a], cl.sizes[b] = cl.sizes[b], cl.sizes[a] })
		for j := range cl.payload {
			cl.payload[j] = byte(rng.Uint32())
		}
		e.clients = append(e.clients, cl)
	}
	discard := newRecorder(len(channelKeys), 0, 1)
	for _, cl := range e.clients {
		for j := 0; j < chWarm; j++ {
			e.session(cl, discard, nil)
		}
	}
	if discard.firstErr != nil {
		e.close()
		return nil, discard.firstErr
	}
	return e, nil
}

func (e *channelEnv) worker(i int, rec *recorder, stop *atomic.Bool) error {
	cl := e.clients[i]
	for !stop.Load() {
		e.session(cl, rec, rec.lane)
	}
	return nil
}

// schedule decides whether the client's next session runs a full
// handshake and whether it rekeys.
func (cl *chanClient) schedule() (full, rekey bool) {
	i := cl.n
	cl.n++
	if i%8 == 0 {
		cl.rekeySlot = cl.rng.IntN(8)
	}
	rekey = i%8 == cl.rekeySlot
	if i == 0 || cl.ses == nil {
		return true, rekey
	}
	if (i-1)%4 == 0 {
		cl.fullSlot = cl.rng.IntN(4)
	}
	return (i-1)%4 == cl.fullSlot, rekey
}

// record returns the next echo payload: the next size in the client's
// seeded order, from a seeded offset into its payload bytes.
func (cl *chanClient) record() []byte {
	n := cl.sizes[cl.next%len(cl.sizes)]
	cl.next++
	off := cl.rng.IntN(64)
	return cl.payload[off : off+n]
}

// session runs and checks one session. l receives its spans (nil when
// untraced or during warm-up outside a traced run).
func (e *channelEnv) session(cl *chanClient, rec *recorder, l *lane) {
	full, rekey := cl.schedule()
	opts := []protocol.Option{protocol.WithHandshakeTracer(l.clientHook())}
	if rekey {
		opts = append(opts, protocol.WithRekeyAfter(chRekeyAfter))
	}
	t0 := time.Now()
	l.begin("session")
	err := e.sessionBody(cl, rec, l, full, rekey, opts)
	l.end()
	end := time.Now()
	if err != nil {
		// A session that failed leaves no usable ticket.
		cl.ses = nil
	}
	rec.latency(chSession, t0, end)
	rec.op(end, err)
}

func (e *channelEnv) sessionBody(cl *chanClient, rec *recorder, l *lane, full, rekey bool, opts []protocol.Option) error {
	l.begin("dial")
	conn, err := net.Dial("tcp", e.srv.addr)
	l.end()
	if err != nil {
		return err
	}
	// Close abortively. A graceful close leaves the client port in
	// TIME_WAIT for a minute, and at this session rate back-to-back runs
	// fill the ephemeral port range, after which every dial slows down.
	if err := conn.(*net.TCPConn).SetLinger(0); err != nil {
		conn.Close()
		return err
	}
	defer func() {
		l.begin("close")
		conn.Close()
		l.end()
	}()

	th := time.Now()
	var ch *protocol.Channel
	if full {
		l.begin("hs.full")
		ch, err = protocol.Client(conn, e.scheme, append(opts, protocol.WithSessionTicket())...)
	} else {
		l.begin("hs.resumed")
		ch, err = protocol.ClientResume(conn, cl.ses, opts...)
	}
	l.end()
	if err != nil {
		return err
	}
	key := chFull
	if ch.Resumed() {
		key = chResumed
	}
	rec.latency(key, th, time.Now())
	cl.ses = ch.Session()

	for r := 0; r < echoesPerSession; r++ {
		msg := cl.record()
		l.begin("echo")
		t1 := time.Now()
		err := ch.Send(msg)
		var got []byte
		if err == nil {
			got, err = ch.Recv()
		}
		t2 := time.Now()
		l.end()
		if err != nil {
			return err
		}
		if err := checkEcho(got, msg); err != nil {
			return err
		}
		rec.latency(chRecord, t1, t2)
	}
	if want := btoi(rekey); ch.Rekeys != want {
		return fmt.Errorf("channel: session rekeyed %d times, want %d", ch.Rekeys, want)
	}
	return nil
}

// checkEcho reports an echo that differs from the record sent.
func checkEcho(got, sent []byte) error {
	if !bytes.Equal(got, sent) {
		return fmt.Errorf("channel: echo of a %d-byte record came back as %d different bytes", len(sent), len(got))
	}
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (e *channelEnv) finish(*recorder) error { return nil }

func (e *channelEnv) close() error { return e.srv.close() }

func (e *channelEnv) workers() int { return len(e.clients) }

func channelDetail(_ env, rec *recorder) map[string]float64 {
	return map[string]float64{
		"sessions_s":        rec.opsPerSec(),
		"hs_full_p50_us":    rec.windowQuantile(chFull, 0.5),
		"hs_full_p99_us":    rec.pooled(chFull).quantile(0.99) / 1e3,
		"hs_resumed_p50_us": rec.windowQuantile(chResumed, 0.5),
		"hs_resumed_p99_us": rec.windowQuantile(chResumed, 0.99),
		"record_rtt_p50_us": rec.windowQuantile(chRecord, 0.5),
		"record_rtt_p99_us": rec.windowQuantile(chRecord, 0.99),
	}
}
