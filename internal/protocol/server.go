package protocol

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ringlwe"
	"ringlwe/internal/obs"
	"ringlwe/internal/ticket"
)

// ErrServerClosed is returned by the serve loops after Shutdown or Close.
var ErrServerClosed = errors.New("protocol: server closed")

// errTooManyRetries ends a KEM flight whose intrinsic decryption
// failures exhausted the retry budget; the metrics layer classifies it
// as a "kem" failure.
var errTooManyRetries = errors.New("protocol: too many decapsulation retries")

// errBadHello marks first flights that never were a handshake: short,
// wrong magic, or not an 8-byte v2 hello (the retired v1 hello among
// them). The metrics layer classifies them as "hello" failures.
var errBadHello = errors.New("protocol: malformed hello")

// hsPath names how a channel was established; it indexes the per-path
// handshake counters and latency histograms.
type hsPath uint8

const (
	pathFull     hsPath = iota // full KEM flight
	pathResumed                // ticket resumption, no KEM work
	pathFallback               // refused resumption downgraded to a full flight
	numPaths
)

func (p hsPath) String() string {
	switch p {
	case pathFull:
		return "full"
	case pathResumed:
		return "resumed"
	default:
		return "fallback"
	}
}

// Handshake-failure reason labels. reasons in tenantMetrics holds one
// counter per value.
const (
	reasonTimeout = "timeout" // handshake deadline hit (slow or stalled peer)
	reasonHello   = "hello"   // malformed first flight
	reasonParams  = "params"  // parameter-set negotiation mismatch
	reasonKEM     = "kem"     // decapsulation errors exhausted the retry budget
	reasonIO      = "io"      // everything else: resets, short reads, write errors
)

var handshakeFailureReasons = []string{reasonTimeout, reasonHello, reasonParams, reasonKEM, reasonIO}

// failureReason classifies a handshake error into its counter label.
func failureReason(err error) string {
	var ne net.Error
	switch {
	case errors.As(err, &ne) && ne.Timeout():
		return reasonTimeout
	case errors.Is(err, errBadHello):
		return reasonHello
	case errors.Is(err, ringlwe.ErrParamsMismatch):
		return reasonParams
	case errors.Is(err, errTooManyRetries), errors.Is(err, ringlwe.ErrDecapsulation):
		return reasonKEM
	default:
		return reasonIO
	}
}

// tenantMetrics is one tenant's registry-backed instrumentation. Every
// metric is sharded (one padded slot per serving shard), so the hot
// paths write without cross-shard contention and Stats/scrapes merge on
// read. Stats() is a thin view over these.
type tenantMetrics struct {
	paths   [numPaths]*obs.Counter   // completed handshakes by path
	hsDur   [numPaths]*obs.Histogram // handshake wall time by path, µs
	reasons map[string]*obs.Counter  // failed handshakes by reason

	retries         *obs.Counter
	rekeys          *obs.Counter
	ticketsIssued   *obs.Counter
	ticketFallbacks *obs.Counter
	active          *obs.Gauge

	recordsSent *obs.Counter // records sealed server→client
	recordsRecv *obs.Counter // records opened client→server
	bytesSent   *obs.Counter
	bytesRecv   *obs.Counter
}

func newTenantMetrics(reg *obs.Registry, params string, shards int) *tenantMetrics {
	pl := obs.Labels{"params": params}
	m := &tenantMetrics{
		reasons:         make(map[string]*obs.Counter, len(handshakeFailureReasons)),
		retries:         reg.Counter("rlwe_kem_retries_total", "KEM decapsulation retries after intrinsic LPR decryption failures", pl, shards),
		rekeys:          reg.Counter("rlwe_rekeys_total", "completed in-band epoch rolls", pl, shards),
		ticketsIssued:   reg.Counter("rlwe_tickets_issued_total", "session-resumption tickets minted", pl, shards),
		ticketFallbacks: reg.Counter("rlwe_ticket_fallbacks_total", "resumption attempts downgraded to full handshakes", pl, shards),
		active:          reg.Gauge("rlwe_active_channels", "currently established channels", pl, shards),
	}
	for p := pathFull; p < numPaths; p++ {
		lab := obs.Labels{"params": params, "path": p.String()}
		m.paths[p] = reg.Counter("rlwe_handshakes_total", "completed handshakes by path", lab, shards)
		m.hsDur[p] = reg.Histogram("rlwe_handshake_duration_us", "handshake wall time by path, microseconds", lab, shards)
	}
	for _, r := range handshakeFailureReasons {
		m.reasons[r] = reg.Counter("rlwe_handshake_failures_total", "failed handshakes by reason, after tenant resolution",
			obs.Labels{"params": params, "reason": r}, shards)
	}
	for _, d := range [...]struct {
		dir          string
		recs, nbytes **obs.Counter
	}{{"sent", &m.recordsSent, &m.bytesSent}, {"recv", &m.recordsRecv, &m.bytesRecv}} {
		lab := obs.Labels{"params": params, "dir": d.dir}
		*d.recs = reg.Counter("rlwe_records_total", "records sealed/opened on server channels", lab, shards)
		*d.nbytes = reg.Counter("rlwe_record_bytes_total", "record payload bytes sealed/opened on server channels", lab, shards)
	}
	return m
}

// serverMetrics is the tenant-independent instrumentation: hellos that
// died before a tenant was resolved and accept-loop health.
type serverMetrics struct {
	rejected      *obs.Counter // hellos rejected before tenant resolution
	acceptRetries *obs.Counter // accept-loop temporary-error backoff retries
	timeouts      *obs.Counter // handshakes that hit the handshake deadline (all tenants + pre-tenant)
}

func newServerMetrics(reg *obs.Registry, shards int) serverMetrics {
	return serverMetrics{
		rejected:      reg.Counter("rlwe_rejected_hellos_total", "hellos rejected before a tenant was resolved", nil, shards),
		acceptRetries: reg.Counter("rlwe_accept_retries_total", "accept-loop temporary-error backoff retries", nil, 1),
		timeouts:      reg.Counter("rlwe_handshake_timeouts_total", "handshakes that hit the handshake deadline", nil, shards),
	}
}

// tenant is one served parameter set: a shared Scheme, a long-term key
// pair, and its slice of the metrics registry.
type tenant struct {
	id     uint16
	scheme *ringlwe.Scheme
	sk     *ringlwe.PrivateKey

	// keyFlight is statusOK ‖ self-describing public key, the server's
	// first KEM flight, encoded once so a handshake sends it in one Write.
	// It is the only form of the public key the server keeps.
	keyFlight []byte

	m *tenantMetrics
}

// connTrace carries one connection's tracing identity through the
// handshake and record paths. A nil *connTrace is the common case and
// disables every span with one pointer check.
type connTrace struct {
	tr obs.Tracer
	id uint64
}

func newConnTrace(tr obs.Tracer) *connTrace {
	if tr == nil {
		return nil
	}
	return &connTrace{tr: tr, id: obs.NextConnID()}
}

// start returns the span clock's origin, or the zero time untraced.
func (ct *connTrace) start() time.Time {
	if ct == nil {
		return time.Time{}
	}
	return time.Now()
}

// span emits one completed phase.
func (ct *connTrace) span(p obs.Phase, start time.Time, err error) {
	if ct == nil {
		return
	}
	ct.tr.OnSpan(obs.Span{Conn: ct.id, Phase: p, Dur: time.Since(start), Err: err})
}

// Server is a multi-tenant sharded secure-channel endpoint: it holds one
// Scheme and long-term key pair per registered parameter set and serves
// clients of any of them. Every connection runs on its own goroutine,
// which does the connection's KEM work itself on a workspace borrowed
// from the tenant's pool. Serving is split into N shards — with
// SO_REUSEPORT, N kernel-fed accept loops; otherwise one accept loop
// tagging connections round-robin — and a shard is just a slot in every
// metric, merged lock-free by Stats and scrapes.
//
// Completed handshakes can mint encrypted session-resumption tickets
// (AES-GCM under a rotating server key, see internal/ticket); a
// reconnecting client that presents one skips the KEM flight entirely.
// Tickets are single-use: the keeper's first Open of a ticket claims its
// bit in a per-key bitmap, and every later one is refused.
//
// Observability: Metrics exposes the registry (counters, gauges and
// latency histograms for every serving path), DebugHandler an admin
// http.Handler (Prometheus /metrics, expvar-style /debug/vars,
// net/http/pprof), WithLogger structured logging and WithTracer
// per-connection handshake spans.
//
// Populate it with AddParams/AddTenant before serving. All methods are
// safe for concurrent use.
type Server struct {
	handler func(*Channel)
	logger  *slog.Logger
	tracer  obs.Tracer

	numShards      int
	hsTimeout      time.Duration
	ticketLifetime time.Duration

	// Ticket machinery; nil keeper means tickets are disabled.
	keeper *ticket.Keeper

	reg *obs.Registry
	sm  serverMetrics

	mu        sync.RWMutex
	tenants   map[uint16]*tenant
	defaultID uint16

	nextShard atomic.Uint64

	connMu  sync.Mutex
	lns     []net.Listener
	conns   map[net.Conn]struct{}
	wg      sync.WaitGroup
	closing atomic.Bool
}

// ServerOption configures a Server at construction.
type ServerOption func(*Server)

// WithHandler sets the function run on every successfully established
// channel; it owns the channel until it returns (the connection closes
// afterwards). Without a handler the server completes handshakes and
// closes — useful for handshake benchmarks and tests.
func WithHandler(h func(*Channel)) ServerOption {
	return func(s *Server) { s.handler = h }
}

// WithLogger directs the server's structured logs to a slog.Logger:
// accept-loop backoff and handshake failures at Warn (timeouts
// included, with their reason attribute), ticket fallbacks at Info.
// Silent by default.
func WithLogger(l *slog.Logger) ServerOption {
	return func(s *Server) { s.logger = l }
}

// WithTracer installs a per-connection trace hook: every served
// connection gets a process-unique span id and the tracer receives one
// obs.Span per completed phase (hello, negotiate, KEM flight, ticket
// open/issue, record encrypt/decrypt, rekey). Nil (the default)
// disables tracing with no overhead on the serving paths.
func WithTracer(t obs.Tracer) ServerOption {
	return func(s *Server) { s.tracer = t }
}

// WithShards sets the number of serving shards (SO_REUSEPORT accept
// lanes and metric slots). Default GOMAXPROCS; values below 1 become 1.
func WithShards(n int) ServerOption {
	return func(s *Server) {
		if n < 1 {
			n = 1
		}
		s.numShards = n
	}
}

// defaultHandshakeTimeout bounds the first flight unless overridden.
const defaultHandshakeTimeout = 10 * time.Second

// NewServer builds an empty server; register parameter sets with
// AddParams or AddTenant.
func NewServer(opts ...ServerOption) *Server {
	s := &Server{
		numShards:      runtime.GOMAXPROCS(0),
		hsTimeout:      defaultHandshakeTimeout,
		ticketLifetime: time.Hour,
		tenants:        make(map[uint16]*tenant),
		conns:          make(map[net.Conn]struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	s.reg = obs.NewRegistry()
	s.sm = newServerMetrics(s.reg, s.numShards)
	if s.ticketLifetime > 0 {
		s.keeper = ticket.NewKeeper(s.ticketLifetime)
	}
	return s
}

// NumShards reports the server's shard count.
func (s *Server) NumShards() int { return s.numShards }

// Metrics returns the server's metrics registry — the source Stats,
// DebugHandler's /metrics and /debug/vars all read from. Callers may
// register their own metrics into it so one scrape covers the process.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// log emits one structured event to the slog.Logger when configured.
func (s *Server) log(level slog.Level, msg string, args ...any) {
	if s.logger != nil {
		s.logger.Log(context.Background(), level, msg, args...)
	}
}

// AddTenant registers a parameter set with an existing scheme and
// long-term key pair. The set must be wire-registered (P1 and P2 always
// are; Custom sets via ringlwe.RegisterParams) so clients can negotiate
// it by ID. The first tenant added becomes the default served to clients
// that request ID 0. The tenant's rlwe_backend_info series
// reports the engine, sampler and codec its scheme resolved to.
func (s *Server) AddTenant(scheme *ringlwe.Scheme, pk *ringlwe.PublicKey, sk *ringlwe.PrivateKey) error {
	p := scheme.Params()
	id := p.WireID()
	if id == 0 {
		return fmt.Errorf("protocol: parameter set %s has no wire ID; register it with ringlwe.RegisterParams", p.Name())
	}
	if pk.Params().N() != p.N() || sk.Params().N() != p.N() || pk.Params().WireID() != id || sk.Params().WireID() != id {
		return fmt.Errorf("protocol: key pair does not match scheme parameter set %s: %w", p.Name(), ringlwe.ErrParamsMismatch)
	}
	keyFlight, err := pk.AppendBinary([]byte{statusOK})
	if err != nil {
		return fmt.Errorf("protocol: encoding %s public key: %w", p.Name(), err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.tenants[id]; dup {
		return fmt.Errorf("protocol: parameter set %s (wire ID %d) already served", p.Name(), id)
	}
	s.tenants[id] = &tenant{
		id:        id,
		scheme:    scheme,
		sk:        sk,
		keyFlight: keyFlight,
		m:         newTenantMetrics(s.reg, p.Name(), s.numShards),
	}
	prof := scheme.Profile()
	s.reg.Gauge("rlwe_backend_info", "backends the tenant's scheme resolved to; always 1", obs.Labels{
		"params":  p.Name(),
		"engine":  prof.Engine,
		"sampler": prof.Sampler,
	}, 1).Inc(0)
	if s.defaultID == 0 {
		s.defaultID = id
	}
	return nil
}

// AddParams registers a parameter set the convenient way: it constructs a
// Scheme with ringlwe.New (every pooled workspace draws from its own
// AES-256-CTR keystream, keyed and rekeyed from the operating system
// CSPRNG), generates a fresh long-term key pair, and registers the tenant.
// Scheme options (profiles, WithRandom, …) are passed through to New.
func (s *Server) AddParams(p *ringlwe.Params, opts ...ringlwe.Option) error {
	scheme := ringlwe.New(p, opts...)
	pk, sk, err := scheme.GenerateKeys()
	if err != nil {
		return fmt.Errorf("protocol: generating %s key pair: %w", p.Name(), err)
	}
	return s.AddTenant(scheme, pk, sk)
}

// tenantByID resolves a hello's parameter-set ID (0 = default tenant).
func (s *Server) tenantByID(id uint16) *tenant {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if id == 0 {
		id = s.defaultID
	}
	return s.tenants[id]
}

// decapsulate runs one handshake decapsulation on the calling
// connection's goroutine, on a workspace borrowed from the tenant's pool.
func (s *Server) decapsulate(t *tenant, blob ringlwe.EncapsulatedKey) ([ringlwe.SharedKeySize]byte, error) {
	ws := t.scheme.AcquireWorkspace()
	key, err := ws.Decapsulate(t.sk, blob)
	t.scheme.ReleaseWorkspace(ws)
	return key, err
}

// ticketsEnabled reports whether the server mints resumption tickets.
func (s *Server) ticketsEnabled() bool { return s.keeper != nil }

// issueTicket writes the ticket blob that follows a handshake which
// requested one: a fresh single-use ticket when issuance is enabled, a
// zero-length blob otherwise.
func (s *Server) issueTicket(rw io.Writer, shard int, ct *connTrace, t *tenant, epoch uint32, secret [32]byte) error {
	if !s.ticketsEnabled() {
		return writeTicketBlob(rw, time.Time{}, nil)
	}
	t0 := ct.start()
	expiry := time.Now().Add(s.ticketLifetime)
	tkt := s.keeper.Seal(ticket.State{ParamsID: t.id, Epoch: epoch, Expiry: expiry, Secret: secret})
	err := writeTicketBlob(rw, expiry, tkt)
	ct.span(obs.PhaseTicketIssue, t0, err)
	if err != nil {
		return err
	}
	t.m.ticketsIssued.Inc(shard)
	return nil
}

// Handshake performs the responder side of one handshake over any
// reliable byte stream, dispatching to the tenant the client names. It is
// the seam the serving loops drive per connection, exported so channels
// can be established over in-memory pipes and custom transports. Its
// metrics land in shard slot 0.
func (s *Server) Handshake(rw io.ReadWriter) (*Channel, error) {
	ch, _, err := s.handshake(rw, 0)
	return ch, err
}

// handshake implements Handshake, also returning the tenant for the
// serving layer's accounting. It reads the 8-byte hello in one read and
// refuses anything but magic ‖ 0xFF ‖ 2 with errBadHello before any
// tenant lookup; then it resolves the tenant by the requested
// parameter-set ID and runs either the resumption path (the hello carries
// a ticket) or the full KEM flight.
func (s *Server) handshake(rw io.ReadWriter, shard int) (*Channel, *tenant, error) {
	ct := newConnTrace(s.tracer)
	t0 := ct.start()
	var hello [helloV2Len]byte
	_, err := io.ReadFull(rw, hello[:])
	switch {
	case errors.Is(err, io.ErrUnexpectedEOF):
		err = fmt.Errorf("%w: truncated", errBadHello)
	case err != nil:
		err = fmt.Errorf("protocol: hello: %w", err)
	case binary.BigEndian.Uint16(hello[:2]) != helloMagic:
		err = fmt.Errorf("%w: bad magic", errBadHello)
	case hello[2] != helloV2Marker || hello[3] != protocolV2:
		err = fmt.Errorf("%w: not a v2 hello (% x)", errBadHello, hello[2:4])
	}
	if err != nil {
		s.sm.rejected.Inc(shard)
		ct.span(obs.PhaseHello, t0, err)
		return nil, nil, err
	}
	ct.span(obs.PhaseHello, t0, nil)

	t0 = ct.start()
	id := binary.BigEndian.Uint16(hello[4:6])
	flags := hello[6]
	if flags&helloFlagResume != 0 {
		ct.span(obs.PhaseNegotiate, t0, nil)
		return s.handshakeResume(rw, shard, ct, id)
	}
	t := s.tenantByID(id)
	if t == nil {
		s.sm.rejected.Inc(shard)
		// Tell the client before closing so it fails with a diagnosis
		// instead of an EOF.
		rw.Write([]byte{statusReject})
		err := fmt.Errorf("protocol: no tenant serves parameter-set ID %d: %w", id, ringlwe.ErrParamsMismatch)
		ct.span(obs.PhaseNegotiate, t0, err)
		return nil, nil, err
	}
	ct.span(obs.PhaseNegotiate, t0, nil)
	return s.serverKEMFlight(rw, shard, ct, t, statusOK, flags&helloFlagTicket != 0)
}

// serverKEMFlight runs the responder's full flight against a resolved
// tenant, wrapped in one KEM-flight span: first status byte (statusOK,
// or statusFallback when downgrading a refused resumption) and public key
// in one Write, the decapsulation loop, and — when the client asked for
// one — the session ticket.
func (s *Server) serverKEMFlight(rw io.ReadWriter, shard int, ct *connTrace, t *tenant, firstStatus byte, wantTicket bool) (*Channel, *tenant, error) {
	t0 := ct.start()
	ch, tn, err := s.serverKEMFlightInner(rw, shard, ct, t, firstStatus, wantTicket)
	ct.span(obs.PhaseKEMFlight, t0, err)
	return ch, tn, err
}

func (s *Server) serverKEMFlightInner(rw io.ReadWriter, shard int, ct *connTrace, t *tenant, firstStatus byte, wantTicket bool) (*Channel, *tenant, error) {
	params := t.scheme.Params()
	if err := t.writeKeyFlight(rw, firstStatus); err != nil {
		return nil, t, fmt.Errorf("protocol: sending public key: %w", err)
	}

	for attempt := 0; attempt <= maxRetries; attempt++ {
		// The encapsulation flight is self-describing too; its header is
		// validated against the negotiated set before the body is read, so
		// a client cannot smuggle another set's (differently sized) blob
		// past the negotiation.
		ekParams, ek, err := ringlwe.ReadAnyEncapsulatedKeyFrom(rw)
		if err != nil {
			return nil, t, fmt.Errorf("protocol: reading encapsulation: %w", err)
		}
		if ekParams.WireID() != t.id {
			return nil, t, fmt.Errorf("protocol: encapsulation is %s, negotiated %s: %w",
				ekParams.Name(), params.Name(), ringlwe.ErrParamsMismatch)
		}
		key, err := s.decapsulate(t, ek)
		if errors.Is(err, ringlwe.ErrDecapsulation) {
			t.m.retries.Inc(shard)
			if _, werr := rw.Write([]byte{statusRetry}); werr != nil {
				return nil, t, fmt.Errorf("protocol: sending retry: %w", werr)
			}
			continue
		}
		if err != nil {
			return nil, t, fmt.Errorf("protocol: decapsulate: %w", err)
		}
		if _, err := rw.Write([]byte{statusOK}); err != nil {
			return nil, t, fmt.Errorf("protocol: sending ok: %w", err)
		}
		if wantTicket {
			if err := s.issueTicket(rw, shard, ct, t, 0, resumeMasterSecret(params, key)); err != nil {
				return nil, t, fmt.Errorf("protocol: sending ticket: %w", err)
			}
		}
		path := pathFull
		if firstStatus == statusFallback {
			path = pathFallback
		}
		ch := s.newServerChannel(rw, shard, ct, t, path)
		ch.Retries = attempt
		ch.deriveKeys(key)
		return ch, t, nil
	}
	return nil, t, errTooManyRetries
}

// writeKeyFlight sends status ‖ public key in one Write. A downgraded
// resumption's statusFallback goes out from a pooled copy of keyFlight.
func (t *tenant) writeKeyFlight(w io.Writer, status byte) error {
	if status == statusOK {
		_, err := w.Write(t.keyFlight)
		return err
	}
	bp := getRecordBuf(len(t.keyFlight))
	copy(*bp, t.keyFlight)
	(*bp)[0] = status
	_, err := w.Write(*bp)
	recordBufs.Put(bp)
	return err
}

// newServerChannel builds the server side of an established channel,
// wired to the tenant's record-layer metrics and the connection trace.
func (s *Server) newServerChannel(rw io.ReadWriter, shard int, ct *connTrace, t *tenant, path hsPath) *Channel {
	m := t.m
	return &Channel{
		rw:      rw,
		scheme:  t.scheme,
		localSK: t.sk,
		onRekey: func() { m.rekeys.Inc(shard) },
		path:    path,
		m:       m,
		shard:   shard,
		ct:      ct,
	}
}

// handshakeResume answers a hello that presented a session ticket. A
// valid, unexpired, never-seen ticket resumes the channel with one
// AES-GCM decrypt and one response record — no KEM work at all. Anything
// else (garbage, expired, replayed, rotated-away key, tickets disabled,
// unknown tenant) transparently downgrades to a full handshake on the
// same connection. Opening a ticket claims it, so a ticket refused for a
// params or tenant mismatch after it opened is spent as well.
func (s *Server) handshakeResume(rw io.ReadWriter, shard int, ct *connTrace, helloID uint16) (*Channel, *tenant, error) {
	var hdr [2]byte
	if _, err := io.ReadFull(rw, hdr[:]); err != nil {
		s.sm.rejected.Inc(shard)
		return nil, nil, fmt.Errorf("protocol: resume hello: %w", err)
	}
	n := int(binary.BigEndian.Uint16(hdr[:]))
	if n == 0 || n > maxTicketWire {
		s.sm.rejected.Inc(shard)
		return nil, nil, fmt.Errorf("%w: resume ticket length %d out of range", errBadHello, n)
	}
	// The spare capacity past the ticket and client random is Open's
	// scratch.
	ext := make([]byte, n+randomLen, n+randomLen+ticket.StateLen)
	if _, err := io.ReadFull(rw, ext); err != nil {
		s.sm.rejected.Inc(shard)
		return nil, nil, fmt.Errorf("protocol: resume hello: %w", err)
	}
	tkt := ext[:n]
	var clientRand [randomLen]byte
	copy(clientRand[:], ext[n:])

	// Open the ticket and decide the path; every refusal downgrades to
	// a full handshake with its reason logged and traced.
	fallbackReason := "disabled"
	if s.ticketsEnabled() {
		t0 := ct.start()
		st, err := s.keeper.Open(tkt, ext[len(ext):])
		switch {
		case errors.Is(err, ticket.ErrReplayed):
			fallbackReason = "replayed"
		case err != nil:
			fallbackReason = "invalid"
		case helloID != 0 && helloID != st.ParamsID:
			fallbackReason = "params"
		default:
			if t := s.tenantByID(st.ParamsID); t != nil && t.id == st.ParamsID {
				ct.span(obs.PhaseTicketOpen, t0, nil)
				return s.resumeChannel(rw, shard, ct, t, st, clientRand)
			}
			fallbackReason = "unknown-params"
		}
		ct.span(obs.PhaseTicketOpen, t0, fmt.Errorf("protocol: ticket refused: %s", fallbackReason))
	}

	// Fall back to a full handshake for the set the hello named. The
	// client clearly wants tickets, so the downgrade reissues one.
	t := s.tenantByID(helloID)
	if t == nil {
		s.sm.rejected.Inc(shard)
		rw.Write([]byte{statusReject})
		return nil, nil, fmt.Errorf("protocol: no tenant serves parameter-set ID %d: %w", helloID, ringlwe.ErrParamsMismatch)
	}
	t.m.ticketFallbacks.Inc(shard)
	s.log(slog.LevelInfo, "ticket fallback",
		"params", t.scheme.Params().Name(), "reason", fallbackReason)
	return s.serverKEMFlight(rw, shard, ct, t, statusFallback, true)
}

// resumeChannel completes an accepted resumption: fresh server random,
// reissued single-use ticket, and a key schedule derived from the
// ticket's master secret plus both randoms.
func (s *Server) resumeChannel(rw io.ReadWriter, shard int, ct *connTrace, t *tenant, st ticket.State, clientRand [randomLen]byte) (*Channel, *tenant, error) {
	var serverRand [randomLen]byte
	rand.Read(serverRand[:]) // never fails: a broken entropy source crashes the program
	resp := make([]byte, 0, 1+randomLen)
	resp = append(resp, statusOK)
	resp = append(resp, serverRand[:]...)
	if _, err := rw.Write(resp); err != nil {
		return nil, t, fmt.Errorf("protocol: sending resume status: %w", err)
	}
	if err := s.issueTicket(rw, shard, ct, t, st.Epoch, st.Secret); err != nil {
		return nil, t, fmt.Errorf("protocol: reissuing ticket: %w", err)
	}
	ch := s.newServerChannel(rw, shard, ct, t, pathResumed)
	ch.resumed = true
	shared := resumedShared(t.scheme.Params().Name(), st.Epoch, st.Secret, clientRand, serverRand)
	ch.deriveKeys(shared)
	return ch, t, nil
}

// acceptLoop accepts until the listener dies or the server closes,
// retrying temporary failures (EMFILE, ECONNABORTED bursts, …) with a
// capped exponential backoff instead of tearing the serving loop down.
// Every retry is counted and logged.
func (s *Server) acceptLoop(ln net.Listener, dispatch func(net.Conn)) error {
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.closing.Load() {
				return ErrServerClosed
			}
			var te interface{ Temporary() bool }
			if errors.As(err, &te) && te.Temporary() {
				if backoff == 0 {
					backoff = 5 * time.Millisecond
				} else if backoff *= 2; backoff > time.Second {
					backoff = time.Second
				}
				s.sm.acceptRetries.Inc(0)
				s.log(slog.LevelWarn, "accept: temporary error",
					"backoff", backoff, "err", err)
				time.Sleep(backoff)
				continue
			}
			return err
		}
		backoff = 0
		dispatch(conn)
	}
}

// Serve accepts connections on ln until the listener fails or
// Shutdown/Close is called, in which case it returns ErrServerClosed. The
// single accept loop tags connections with shards round-robin; for
// kernel-sharded accepts use Listen + ServeListeners.
func (s *Server) Serve(ln net.Listener) error {
	s.connMu.Lock()
	s.lns = append(s.lns, ln)
	s.connMu.Unlock()
	return s.acceptLoop(ln, func(conn net.Conn) {
		shard := int(s.nextShard.Add(1) % uint64(s.numShards))
		s.wg.Add(1)
		go s.serveConn(conn, shard)
	})
}

// Listen binds the server's accept lanes on addr: one SO_REUSEPORT
// listener per shard where the platform supports it (the kernel then
// spreads connections across the shard accept loops), or a single
// listener otherwise. It returns the bound address (useful with ":0") —
// follow with ServeListeners.
func (s *Server) Listen(network, addr string) (net.Addr, error) {
	lns, err := listenReuseport(network, addr, s.numShards)
	if err != nil {
		ln, lerr := net.Listen(network, addr)
		if lerr != nil {
			return nil, lerr
		}
		lns = []net.Listener{ln}
	}
	s.connMu.Lock()
	s.lns = append(s.lns, lns...)
	s.connMu.Unlock()
	return lns[0].Addr(), nil
}

// ServeListeners runs the accept loops bound by Listen until shutdown
// (returning ErrServerClosed) or a listener failure. With reuseport
// listeners each accept loop counts its connections in its own shard;
// with a single listener it degrades to Serve's round-robin shard tags.
func (s *Server) ServeListeners() error {
	s.connMu.Lock()
	lns := append([]net.Listener(nil), s.lns...)
	s.connMu.Unlock()
	if len(lns) == 0 {
		return errors.New("protocol: ServeListeners without Listen")
	}
	if len(lns) == 1 {
		return s.Serve(lns[0])
	}
	errc := make(chan error, len(lns))
	for i, ln := range lns {
		shard := i % s.numShards
		go func() {
			errc <- s.acceptLoop(ln, func(conn net.Conn) {
				s.wg.Add(1)
				go s.serveConn(conn, shard)
			})
		}()
	}
	first := <-errc
	// One lane failing (or shutdown) brings the rest down too.
	s.closeListeners()
	for i := 1; i < len(lns); i++ {
		<-errc
	}
	return first
}

// serveConn runs one connection, counting it in metric slot shard:
// handshake under the handshake deadline, per-path latency and counter
// accounting, then the handler.
func (s *Server) serveConn(conn net.Conn, shard int) {
	defer s.wg.Done()
	defer conn.Close()
	s.trackConn(conn, true)
	defer s.trackConn(conn, false)

	if s.hsTimeout > 0 {
		conn.SetDeadline(time.Now().Add(s.hsTimeout))
	}
	start := time.Now()
	ch, t, err := s.handshake(conn, shard)
	if err != nil {
		s.recordHandshakeFailure(conn, shard, t, err)
		return
	}
	if s.hsTimeout > 0 {
		conn.SetDeadline(time.Time{})
	}
	m := t.m
	m.paths[ch.path].Inc(shard)
	m.hsDur[ch.path].ObserveDuration(shard, time.Since(start))
	m.active.Inc(shard)
	defer m.active.Dec(shard)
	if s.handler != nil {
		s.handler(ch)
	}
}

// recordHandshakeFailure classifies and counts one failed handshake
// (per-reason tenant counters when one was resolved, the shared timeout
// counter always) and logs it.
func (s *Server) recordHandshakeFailure(conn net.Conn, shard int, t *tenant, err error) {
	reason := failureReason(err)
	if reason == reasonTimeout {
		s.sm.timeouts.Inc(shard)
	}
	params := "unresolved"
	if t != nil {
		t.m.reasons[reason].Inc(shard)
		params = t.scheme.Params().Name()
	}
	s.log(slog.LevelWarn, "handshake failed",
		"remote", remoteAddr(conn), "params", params, "reason", reason, "err", err)
}

// remoteAddr renders a connection's peer address for log attributes.
func remoteAddr(conn net.Conn) string {
	if addr := conn.RemoteAddr(); addr != nil {
		return addr.String()
	}
	return "unknown"
}

func (s *Server) trackConn(conn net.Conn, add bool) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if add {
		s.conns[conn] = struct{}{}
	} else {
		delete(s.conns, conn)
	}
}

func (s *Server) closeListeners() {
	s.connMu.Lock()
	for _, ln := range s.lns {
		ln.Close()
	}
	s.connMu.Unlock()
}

// Shutdown gracefully stops the server: every listener closes immediately
// (the serve loops return ErrServerClosed), established channels keep
// running until their handlers finish or ctx expires, at which point their
// connections are force-closed and Shutdown waits for the handlers to
// unwind before returning ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closing.Store(true)
	s.closeListeners()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.connMu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.connMu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Close stops the server immediately: the listeners and every active
// connection are closed and Close waits for the handlers to unwind.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Shutdown(ctx)
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}

// Counters is one tenant's monotonic totals (and current active-channel
// gauge) since the server started, merged across shards — a thin view
// over the metrics registry, preserving the pre-registry JSON shape and
// adding the timeout and per-reason failure breakdowns.
type Counters struct {
	Handshakes      uint64            `json:"handshakes"`
	Resumed         uint64            `json:"resumed"`
	Failures        uint64            `json:"handshake_failures"`
	Timeouts        uint64            `json:"handshake_timeouts"`
	FailureReasons  map[string]uint64 `json:"failure_reasons,omitempty"`
	Retries         uint64            `json:"kem_retries"`
	Rekeys          uint64            `json:"rekeys"`
	TicketsIssued   uint64            `json:"tickets_issued"`
	TicketFallbacks uint64            `json:"ticket_fallbacks"`
	ActiveChannels  int64             `json:"active_channels"`
}

// Stats is an expvar-style snapshot of the server: per-parameter-set
// counters keyed by set name, plus hellos rejected before a tenant was
// resolved, accept-loop retries and handshake-deadline hits. Its String
// method renders JSON, so it satisfies expvar.Var:
//
//	expvar.Publish("rlwe_server", expvar.Func(func() any { return srv.Stats() }))
type Stats struct {
	Rejected      uint64              `json:"rejected_hellos"`
	AcceptRetries uint64              `json:"accept_retries"`
	Timeouts      uint64              `json:"handshake_timeouts"`
	Shards        int                 `json:"shards"`
	PerParams     map[string]Counters `json:"per_params"`
}

// String renders the snapshot as JSON (the expvar.Var contract).
func (st Stats) String() string {
	b, err := json.Marshal(st)
	if err != nil {
		return "{}"
	}
	return string(b)
}

// Stats returns a consistent point-in-time snapshot of the per-params
// counters as a view over the metrics registry, merging each metric's
// per-shard slots with atomic loads — no lock on any serving path. Safe
// to call concurrently with serving.
func (s *Server) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{
		Rejected:      s.sm.rejected.Value(),
		AcceptRetries: s.sm.acceptRetries.Value(),
		Timeouts:      s.sm.timeouts.Value(),
		Shards:        s.numShards,
		PerParams:     make(map[string]Counters, len(s.tenants)),
	}
	for _, t := range s.tenants {
		m := t.m
		c := Counters{
			Handshakes:      m.paths[pathFull].Value() + m.paths[pathFallback].Value(),
			Resumed:         m.paths[pathResumed].Value(),
			Retries:         m.retries.Value(),
			Rekeys:          m.rekeys.Value(),
			TicketsIssued:   m.ticketsIssued.Value(),
			TicketFallbacks: m.ticketFallbacks.Value(),
			ActiveChannels:  m.active.Value(),
		}
		for reason, ctr := range m.reasons {
			v := ctr.Value()
			if v == 0 {
				continue
			}
			c.Failures += v
			if reason == reasonTimeout {
				c.Timeouts = v
			}
			if c.FailureReasons == nil {
				c.FailureReasons = make(map[string]uint64)
			}
			c.FailureReasons[reason] = v
		}
		st.PerParams[t.scheme.Params().Name()] = c
	}
	return st
}

// ParamsServed lists the served parameter sets, default first, the rest
// by wire ID.
func (s *Server) ParamsServed() []*ringlwe.Params {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := make([]int, 0, len(s.tenants))
	for id := range s.tenants {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	out := make([]*ringlwe.Params, 0, len(ids))
	if t := s.tenants[s.defaultID]; t != nil {
		out = append(out, t.scheme.Params())
	}
	for _, id := range ids {
		if uint16(id) != s.defaultID {
			out = append(out, s.tenants[uint16(id)].scheme.Params())
		}
	}
	return out
}
