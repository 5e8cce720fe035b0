package protocol

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ringlwe"
	"ringlwe/internal/obs"
)

// drive runs one client handshake against addr, echoes a record so the
// serving-path metrics move, and closes the connection (the returned
// channel is only good for post-handshake state like Session).
func drive(t *testing.T, addr string, connect func(net.Conn) (*Channel, error)) *Channel {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ch, err := connect(conn)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Recv(); err != nil {
		t.Fatal(err)
	}
	return ch
}

// TestDebugHandlerSmoke is the acceptance-criteria check: after full,
// resumed and fallback handshakes the debug endpoint serves Prometheus
// metrics whose per-path handshake series carry the right counts, an
// expvar-style /debug/vars document, pprof, and a health probe.
func TestDebugHandlerSmoke(t *testing.T) {
	srv := newTestServer(t, ringlwe.P1())
	srv.handler = echoHandler
	addr, stop := startEchoServer(t, srv)
	defer stop()

	scheme := ringlwe.NewDeterministic(ringlwe.P1(), 7)

	// Full handshake with a ticket, a resumption, and a fallback (the
	// same ticket replayed).
	ch := drive(t, addr, func(c net.Conn) (*Channel, error) { return Client(c, scheme, WithSessionTicket()) })
	ses := ch.Session()
	if ses == nil {
		t.Fatal("no session ticket issued")
	}
	ch2 := drive(t, addr, func(c net.Conn) (*Channel, error) { return ClientResume(c, ses) })
	if !ch2.Resumed() {
		t.Fatal("second handshake did not resume")
	}
	replay := *ses // reuse the consumed ticket: refused, falls back
	ch3 := drive(t, addr, func(c net.Conn) (*Channel, error) { return ClientResume(c, &replay) })
	if ch3.Resumed() {
		t.Fatal("replayed ticket resumed")
	}

	ts := httptest.NewServer(srv.DebugHandler())
	defer ts.Close()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	code, metrics := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		`rlwe_handshakes_total{params="P1",path="full"} 1`,
		`rlwe_handshakes_total{params="P1",path="resumed"} 1`,
		`rlwe_handshakes_total{params="P1",path="fallback"} 1`,
		`rlwe_handshake_duration_us_count{params="P1",path="full"} 1`,
		`rlwe_handshake_duration_us_count{params="P1",path="resumed"} 1`,
		`rlwe_handshake_duration_us_count{params="P1",path="fallback"} 1`,
		`rlwe_ticket_fallbacks_total{params="P1"} 1`,
		"# TYPE rlwe_handshake_duration_us histogram",
		"rlwe_records_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, vars := get("/debug/vars")
	if code != 200 {
		t.Fatalf("/debug/vars status %d", code)
	}
	var doc struct {
		Server  Stats                      `json:"rlwe_server"`
		Metrics map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(vars), &doc); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v\n%s", err, vars)
	}
	if got := doc.Server.PerParams["P1"].Handshakes; got != 2 {
		t.Errorf("stats handshakes = %d, want 2 (full + fallback)", got)
	}
	if got := doc.Server.PerParams["P1"].Resumed; got != 1 {
		t.Errorf("stats resumed = %d, want 1", got)
	}
	if len(doc.Metrics) == 0 {
		t.Error("/debug/vars metrics object is empty")
	}

	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "profiles") {
		t.Errorf("/debug/pprof/ status %d", code)
	}
	if code, body := get("/healthz"); code != 200 || body != "ok\n" {
		t.Errorf("/healthz = %d %q", code, body)
	}
}

// TestDebugHandlerBackendInfo scrapes the info series that shows which
// backends each tenant's scheme resolved to: AddParams takes New's
// defaults, and an explicitly configured tenant reports its own profile.
func TestDebugHandlerBackendInfo(t *testing.T) {
	srv := NewServer()
	if err := srv.AddParams(ringlwe.P1()); err != nil {
		t.Fatal(err)
	}
	scheme := ringlwe.NewDeterministic(ringlwe.P2(), 5, ringlwe.ConstantTime())
	pk, sk, err := scheme.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddTenant(scheme, pk, sk); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.DebugHandler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE rlwe_backend_info gauge",
		`rlwe_backend_info{engine="vector",params="P1",sampler="wide-ky"} 1`,
		`rlwe_backend_info{engine="vector",params="P2",sampler="cdt"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestServerTracerSpans checks the trace seam end to end on both sides:
// a served full handshake emits the server phases in order on one
// connection id, and the client option emits the client-side phases.
func TestServerTracerSpans(t *testing.T) {
	var mu sync.Mutex
	byConn := map[uint64][]obs.Phase{}
	tracer := obs.TracerFunc(func(s obs.Span) {
		mu.Lock()
		byConn[s.Conn] = append(byConn[s.Conn], s.Phase)
		mu.Unlock()
	})

	srv := NewServer(WithTracer(tracer))
	scheme := ringlwe.NewDeterministic(ringlwe.P1(), 1001)
	pk, sk, err := scheme.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddTenant(scheme, pk, sk); err != nil {
		t.Fatal(err)
	}
	srv.handler = echoHandler
	addr, stop := startEchoServer(t, srv)
	defer stop()

	cs := ringlwe.NewDeterministic(ringlwe.P1(), 7)
	drive(t, addr, func(c net.Conn) (*Channel, error) {
		return Client(c, cs, WithSessionTicket(), WithHandshakeTracer(tracer))
	})

	mu.Lock()
	defer mu.Unlock()
	var serverSeen, clientSeen bool
	for _, phases := range byConn {
		s := fmt.Sprint(phases)
		switch {
		case strings.Contains(s, fmt.Sprint(obs.PhaseTicketIssue)):
			// Server side: hello, negotiate, ticket-issue inside the KEM
			// flight, then record spans from the echo.
			serverSeen = true
			for i, want := range []obs.Phase{obs.PhaseHello, obs.PhaseNegotiate, obs.PhaseTicketIssue, obs.PhaseKEMFlight} {
				if i >= len(phases) || phases[i] != want {
					t.Errorf("server phases = %v, want prefix hello/negotiate/ticket-issue/kem-flight", phases)
					break
				}
			}
		case strings.Contains(s, fmt.Sprint(obs.PhaseKEMFlight)):
			clientSeen = true
			if phases[0] != obs.PhaseHello || phases[1] != obs.PhaseNegotiate {
				t.Errorf("client phases = %v, want hello/negotiate prefix", phases)
			}
		}
	}
	if !serverSeen || !clientSeen {
		t.Errorf("missing traced connections (server %v, client %v): %v", serverSeen, clientSeen, byConn)
	}
}

// TestStatsFailureSurfacing checks the previously invisible failures now
// show up: a malformed hello counts as a rejected hello, and a
// mid-handshake disconnect after tenant resolution lands in the
// per-reason failure map.
func TestStatsFailureSurfacing(t *testing.T) {
	srv := newTestServer(t, ringlwe.P1())
	addr, stop := startEchoServer(t, srv)
	defer stop()

	// Bad magic: rejected before tenant resolution.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	waitFor(t, func() bool { return srv.Stats().Rejected == 1 })
	conn.Close()

	// Valid v2 hello for P1, then hang up mid-flight: an "io" failure on
	// the resolved tenant.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	hello := []byte{0x52, 0x4C, 0xFF, 2, 0, 0, 0, 0}
	if _, err := conn2.Write(hello); err != nil {
		t.Fatal(err)
	}
	var status [1]byte
	if _, err := io.ReadFull(conn2, status[:]); err != nil {
		t.Fatal(err)
	}
	conn2.Close()
	waitFor(t, func() bool {
		return srv.Stats().PerParams["P1"].FailureReasons["io"] == 1
	})

	st := srv.Stats()
	if st.PerParams["P1"].Failures != 1 {
		t.Errorf("failures = %d, want 1", st.PerParams["P1"].Failures)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"failure_reasons":{"io":1}`) {
		t.Errorf("failure reasons not in Stats JSON: %s", buf.String())
	}
}

// TestServerSlogLogging checks WithLogger routes handshake failures to
// the structured logger with the classifier's reason attribute.
func TestServerSlogLogging(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(lockedWriter{&mu, &buf}, nil))
	srv := newTestServer(t, ringlwe.P1())
	srv.logger = logger
	addr, stop := startEchoServer(t, srv)
	defer stop()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte{0x52, 0x4C, 0xFF, 99, 0, 0, 0, 0}) // impossible version
	conn.Close()
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return strings.Contains(buf.String(), "handshake failed") &&
			strings.Contains(buf.String(), "reason=hello")
	})
}

// waitFor polls cond until it holds or the deadline passes — server-side
// accounting runs on the serving goroutine after the client returns.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}
