package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"net"
	"sync/atomic"
	"time"

	"ringlwe"
	"ringlwe/internal/agg"
	"ringlwe/internal/obs"
	"ringlwe/internal/protocol"
)

// agg: B1 encrypted aggregation over loopback. Each client is a device
// connection, handshaked during set-up, that SUBMITs ciphertexts drawn
// from a seeded pool: 3 of every 4 to its own private stream, 1 to a
// stream all clients share. After every aggWindow private submits the
// client QUERYs its stream, decrypts the aggregate, checks it against the
// XOR of what it sent, and RESETs it. The shared stream is checked once,
// when the run ends.

const (
	aggSubmit = iota // the operation: one SUBMIT
	aggPrivate
	aggShared
	aggQuery
)

var aggKeys = []string{"submit", "submit_private", "submit_shared", "query"}

const (
	aggPool   = 64 // distinct ciphertexts submitted
	aggWindow = 64 // private submits between QUERY/RESET rounds
	// aggWarm is the number of submits each client makes during set-up:
	// one full query round plus some.
	aggWarm = aggWindow*4/3 + 16
)

type aggEnv struct {
	srv    *server
	eng    *agg.Engine
	params *ringlwe.Params
	dataSK *ringlwe.PrivateKey
	pool   [][]byte // marshalled kind-3 ciphertexts
	msgs   [][]byte // their plaintexts

	shared      uint64
	sharedToken [agg.TokenSize]byte
	sharedN     atomic.Int64 // submits routed to the shared stream
	sharedCap   int64

	clients []*aggClient

	before aggCounters
}

// aggClient is one device connection and what it has sent.
type aggClient struct {
	conn  net.Conn
	cl    *agg.Client
	ws    *ringlwe.Workspace
	rng   *rand.Rand
	id    uint64
	token [agg.TokenSize]byte

	n          int // submits made
	sharedSlot int // which submit of the current block of 4 goes to the shared stream
	privN      uint64
	privXOR    []byte
	sharedXOR  []byte
	plain      []byte // decrypt buffer

	lane *lane // the trace lane of the goroutine driving it (nil untraced)
}

func setupAgg(c config) (env, error) {
	p := ringlwe.B1()
	e := &aggEnv{params: p, sharedCap: int64(p.MaxAddends() - 1024)}
	e.eng = agg.New(c.clients)
	srv, err := startServer(c, p, e.eng.Handle, func(s *protocol.Server) { e.eng.Instrument(s.Metrics()) })
	if err != nil {
		return nil, err
	}
	e.srv = srv
	if err := e.build(c); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// build makes the data key pair and the ciphertext pool, connects the
// devices, creates their streams and warms every path.
func (e *aggEnv) build(c config) error {
	p := e.params
	dataPK, dataSK, err := ringlwe.NewDeterministic(p, c.seed^0x9e3779b97f4a7c15).GenerateKeys()
	if err != nil {
		return err
	}
	e.dataSK = dataSK
	scheme := ringlwe.New(p)
	ws := scheme.NewWorkspace()
	rng := rand.New(rand.NewPCG(c.seed, 0))
	for i := 0; i < aggPool; i++ {
		msg := make([]byte, p.MessageSize())
		for j := range msg {
			msg[j] = byte(rng.Uint32())
		}
		ct := ringlwe.NewCiphertext(p)
		if err := ws.EncryptInto(ct, dataPK, msg); err != nil {
			return err
		}
		blob, err := ct.MarshalBinary()
		if err != nil {
			return err
		}
		e.pool, e.msgs = append(e.pool, blob), append(e.msgs, msg)
	}
	for i := 0; i < c.clients; i++ {
		conn, err := net.Dial("tcp", e.srv.addr)
		if err != nil {
			return err
		}
		ac := &aggClient{conn: conn, ws: scheme.NewWorkspace(),
			rng:     rand.New(rand.NewPCG(c.seed, uint64(i)+1)),
			privXOR: make([]byte, p.MessageSize()), sharedXOR: make([]byte, p.MessageSize()),
			plain: make([]byte, p.MessageSize())}
		e.clients = append(e.clients, ac)
		var opts []protocol.Option
		if c.trace != nil {
			// The connection's spans go to whichever lane drives it.
			opts = append(opts, protocol.WithHandshakeTracer(obs.TracerFunc(func(s obs.Span) { ac.lane.onSpan(s) })))
		}
		ch, err := protocol.Client(conn, scheme, opts...)
		if err != nil {
			return err
		}
		ac.cl = agg.NewClient(ch)
		for j := range ac.token {
			ac.token[j] = byte(ac.rng.Uint32())
		}
		if ac.id, err = ac.cl.CreateStream(ac.token); err != nil {
			return err
		}
	}
	for j := range e.sharedToken {
		e.sharedToken[j] = byte(rng.Uint32())
	}
	if e.shared, err = e.clients[0].cl.CreateStream(e.sharedToken); err != nil {
		return err
	}
	discard := newRecorder(len(aggKeys), 0, 1)
	for _, ac := range e.clients {
		for j := 0; j < aggWarm; j++ {
			if err := e.submit(ac, discard); err != nil {
				return err
			}
		}
	}
	return discard.firstErr
}

func (e *aggEnv) worker(i int, rec *recorder, stop *atomic.Bool) error {
	ac := e.clients[i]
	ac.lane = rec.lane
	for !stop.Load() {
		if err := e.submit(ac, rec); err != nil {
			return err
		}
	}
	return nil
}

// submit makes one SUBMIT, and the QUERY/RESET round when the private
// stream's window is full. It returns only errors that leave the
// connection unusable; check failures are recorded.
func (e *aggEnv) submit(ac *aggClient, rec *recorder) error {
	if ac.n%4 == 0 {
		ac.sharedSlot = ac.rng.IntN(4)
	}
	toShared := ac.n%4 == ac.sharedSlot && e.sharedN.Load() < e.sharedCap
	ac.n++
	idx := ac.rng.IntN(aggPool)
	id, key, name := ac.id, aggPrivate, "submit.private"
	if toShared {
		id, key, name = e.shared, aggShared, "submit.shared"
		e.sharedN.Add(1)
	}
	l := rec.lane
	l.begin(name)
	t0 := time.Now()
	depth, err := ac.cl.Submit(id, e.pool[idx])
	t1 := time.Now()
	l.end()
	if err != nil {
		rec.op(t1, err)
		return fmt.Errorf("agg: submit: %w", err)
	}
	rec.latency(aggSubmit, t0, t1)
	rec.latency(key, t0, t1)
	if toShared {
		xorInto(ac.sharedXOR, e.msgs[idx])
		rec.op(t1, nil)
		return nil
	}
	xorInto(ac.privXOR, e.msgs[idx])
	ac.privN++
	if depth != ac.privN {
		err = fmt.Errorf("agg: private stream depth %d after %d submits", depth, ac.privN)
	}
	rec.op(t1, err)
	if ac.privN < aggWindow {
		return nil
	}
	return e.query(ac, rec)
}

// query reads back, decrypts and checks the client's private aggregate,
// then resets the stream.
func (e *aggEnv) query(ac *aggClient, rec *recorder) error {
	l := rec.lane
	l.begin("query")
	t0 := time.Now()
	ct, err := ac.cl.Query(ac.id, ac.token)
	if err != nil {
		l.end()
		rec.aux(time.Now(), err)
		return fmt.Errorf("agg: query: %w", err)
	}
	l.begin("decrypt")
	err = ac.ws.DecryptInto(ac.plain, e.dataSK, ct)
	l.end()
	t1 := time.Now()
	l.end()
	rec.latency(aggQuery, t0, t1)
	if err == nil {
		err = checkAggregate(ac.plain, ac.privXOR, ct.Addends(), ac.privN)
	}
	rec.aux(t1, err)

	l.begin("reset")
	released, err := ac.cl.Reset(ac.id, ac.token)
	l.end()
	if err != nil {
		return fmt.Errorf("agg: reset: %w", err)
	}
	if released != ac.privN {
		rec.aux(time.Now(), fmt.Errorf("agg: reset released %d addends, want %d", released, ac.privN))
	}
	clear(ac.privXOR)
	ac.privN = 0
	return nil
}

// checkAggregate reports an aggregate that did not decrypt to the XOR of
// the plaintexts submitted, or that counts a different number of addends.
func checkAggregate(got, want []byte, addends, sent uint64) error {
	if addends != sent {
		return fmt.Errorf("agg: aggregate holds %d addends, %d were submitted", addends, sent)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("agg: aggregate of %d addends decrypted wrong", addends)
	}
	return nil
}

func xorInto(dst, src []byte) {
	for i := range dst {
		dst[i] ^= src[i]
	}
}

// finish checks the shared stream against every client's share of it.
func (e *aggEnv) finish(rec *recorder) error {
	want := make([]byte, e.params.MessageSize())
	for _, ac := range e.clients {
		xorInto(want, ac.sharedXOR)
	}
	ac := e.clients[0]
	ct, err := ac.cl.Query(e.shared, e.sharedToken)
	if err != nil {
		return fmt.Errorf("agg: shared query: %w", err)
	}
	if err := ac.ws.DecryptInto(ac.plain, e.dataSK, ct); err != nil {
		return err
	}
	rec.check(checkAggregate(ac.plain, want, ct.Addends(), uint64(e.sharedN.Load())))
	return nil
}

func (e *aggEnv) workers() int { return len(e.clients) }

func (e *aggEnv) close() error {
	for _, ac := range e.clients {
		ac.conn.Close()
	}
	return e.srv.close()
}

func aggDetail(_ env, rec *recorder) map[string]float64 {
	return map[string]float64{
		"submits_s":     rec.opsPerSec(),
		"submit_p50_us": rec.windowQuantile(aggSubmit, 0.5),
		"submit_p99_us": rec.windowQuantile(aggSubmit, 0.99),
		"query_p50_us":  rec.pooled(aggQuery).quantile(0.5) / 1e3,
	}
}
