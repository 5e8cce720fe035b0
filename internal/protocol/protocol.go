// Package protocol implements a secure-channel protocol over the ring-LWE
// KEM — the "interconnected devices, even over the Internet" scenario the
// paper's introduction motivates, and the use case its Table III peer [9]
// (Bos et al., ring-LWE key exchange for TLS) evaluates.
//
// The handshake negotiates the parameter set through the library's
// self-describing wire format. The client's first flight names a
// registered parameter-set ID (or 0 for "server's choice"); the server
// answers with a status byte and its self-describing public-key blob,
// whose six-byte header carries the set actually served, so the client
// recovers the parameters from the blob itself via the registered-params
// table:
//
//	C → S   HELLO2: magic ‖ 0xFF ‖ 2 ‖ params ID ‖ flags ‖ 0   (8 bytes)
//	S → C   status ‖ self-describing public key               (one write)
//	C → S   self-describing KEM encapsulation blob            (one write)
//	S → C   status (OK, or RETRY after an intrinsic LPR decryption
//	        failure, in which case the client encapsulates again)
//
// The server refuses every other first flight, including the four-byte
// tagged hello of the retired protocol v1, before any KEM work.
//
// Both sides then derive direction-separated AES-128-CTR + HMAC-SHA256
// keys from the shared secret and exchange length-prefixed sealed records
// with monotonic sequence numbers (replay and reorder detection). Records
// carry a type byte, which adds in-band rekeying for long-lived sessions:
// after WithRekeyAfter(n) records the client transparently encapsulates a
// fresh session key to the server's long-term public key inside the
// channel (acknowledged before either side switches, so an intrinsic
// decryption failure downgrades to a retry, not a dead channel), and both
// sides roll to epoch-separated keys with reset sequence numbers.
//
// Each direction keys its AES-128 cipher and HMAC-SHA256 once per epoch;
// a record then costs one CTR stream and one MAC reset. Records are built
// and opened in buffers from one pool shared by all channels, so the
// slice Channel.Recv returns is valid only until the next Recv on that
// channel, like bufio.Scanner.Bytes.
//
// A handshake that set the ticket flag additionally receives a
// session-resumption ticket — the server's AES-GCM-sealed copy of a
// resumption master secret both sides derive (see resume.go). Presenting
// it on reconnect (ClientResume, the resume flag) skips the KEM flight:
// the server answers with a fresh random and a reissued single-use
// ticket, both sides derive the record keys from the master secret plus
// the two randoms, and an invalid ticket transparently downgrades to a
// full handshake on the same connection (statusFallback). Flags ride in
// the formerly reserved hello byte, so unflagged flows remain
// bit-identical to older clients and servers.
//
// Handshakes borrow a pooled per-goroutine workspace from the shared
// Scheme for all KEM work, on the connection's own goroutine, so any
// number of connections may handshake concurrently against one Scheme
// and one long-term key pair without contention or per-message garbage.
// The Server type serves several parameter sets at once — one Scheme and
// key pair per registered set — across shard-per-core accept lanes with
// lock-free merged per-shard stats (see server.go).
package protocol

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"sync"

	"ringlwe"
	"ringlwe/internal/obs"
)

// Protocol constants.
const (
	helloMagic    = 0x524C // "RL"
	helloV2Len    = 8
	helloV2Marker = 0xFF // hello[2]
	protocolV2    = 2

	statusOK       = 0
	statusRetry    = 1
	statusReject   = 2
	statusFallback = 3 // resumption refused; a full handshake follows inline

	// v2 hello flags (hello byte 6, formerly reserved — zero from older
	// clients, so unflagged flows stay bit-identical on the wire).
	helloFlagTicket = 0x01 // request a session-resumption ticket
	helloFlagResume = 0x02 // a ticket + client random follow the hello

	maxRetries   = 8
	maxRecordLen = 1 << 20
	recordHdrLen = 5 // type ‖ 4-byte length
	tagLen       = 16

	// maxTicketWire bounds the length-prefixed ticket blobs either side
	// will read; real tickets are well under it.
	maxTicketWire = 512

	// randomLen is the size of the client/server freshness contributions
	// mixed into a resumed session's key schedule.
	randomLen = 16

	// maxPendingRecords bounds how many in-flight data records a client
	// will buffer while waiting for a rekey ack.
	maxPendingRecords = 1024

	// Record types.
	recordData      = 0
	recordRekey     = 1
	recordRekeyAck  = 2
	recordRekeyNack = 3
)

// Option configures a handshake.
type Option func(*options)

type options struct {
	rekeyAfter uint64
	wantTicket bool
	tracer     obs.Tracer
}

func applyOptions(opts []Option) options {
	var o options
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// WithRekeyAfter makes a client refresh the session keys after n data
// records (counting both directions): before the n+1th send it runs an
// in-band KEM rekey and both sides roll to fresh epoch-separated keys.
// Zero (the default) never rekeys. Servers follow the client's lead and
// need no option.
func WithRekeyAfter(n uint64) Option {
	return func(o *options) { o.rekeyAfter = n }
}

// WithHandshakeTracer installs a client-side trace hook: the handshake
// and the channel's record/rekey paths emit one obs.Span per completed
// phase to t, all carrying the same process-unique connection id. The
// server-side equivalent is the WithTracer server option.
func WithHandshakeTracer(t obs.Tracer) Option {
	return func(o *options) { o.tracer = t }
}

// WithSessionTicket makes a client request a session-resumption ticket
// in its hello: a ticket-issuing server hands back an encrypted ticket at
// handshake completion, available as Channel.Session, and the next
// connection can skip the KEM flight entirely via ClientResume. Servers
// that do not issue tickets leave Session nil; the handshake itself is
// unchanged.
func WithSessionTicket() Option {
	return func(o *options) { o.wantTicket = true }
}

// Channel is an established secure channel. Not safe for concurrent use;
// callers serialize Send/Recv per side as usual for record protocols.
type Channel struct {
	rw io.ReadWriter

	// KEM state for rekeying: the client keeps the scheme and the server's
	// long-term public key, the server its scheme and private key.
	isClient bool
	scheme   *ringlwe.Scheme
	peerPK   *ringlwe.PublicKey
	localSK  *ringlwe.PrivateKey

	// rekeyAfter is the data-record count that triggers a client-side
	// rekey; records counts data records sealed or opened at the current
	// epoch; epoch separates successive key schedules in the derivation.
	rekeyAfter uint64
	records    uint64
	epoch      uint32

	// onRekey notifies the serving layer (per-params counters).
	onRekey func()

	// Observability wiring. m and shard point a server-side channel at
	// its tenant's record-layer counters (nil m on client channels and
	// disables them); ct carries the connection's trace identity (nil
	// disables spans with one pointer check per record).
	path  hsPath
	m     *tenantMetrics
	shard int
	ct    *connTrace

	// resumed marks a channel established from a session ticket (no KEM
	// flight); session holds the client's resumption state for the next
	// reconnect, when ticket issuance was requested.
	resumed bool
	session *Session

	// pending queues data records that arrive while the client waits for
	// a rekey ack — records the peer sealed under the old epoch before it
	// processed the rekey (per-direction FIFO ordering delivers them
	// ahead of the ack). Recv drains it before reading the wire. Entries
	// are copies: the record buffers they were opened into are pooled.
	pending [][]byte

	// Record-layer state per direction, keyed once per epoch.
	send, recv recordState
	// rbuf is the pooled buffer holding the last opened record, which
	// the latest Recv returned; hdr is openRecord's header scratch.
	rbuf *[]byte
	hdr  [recordHdrLen]byte

	// Retries records how many KEM retries the handshake needed (usually 0;
	// each intrinsic LPR decryption failure adds one).
	Retries int
	// Rekeys records how many epoch rolls the channel has completed.
	Rekeys int
}

// Params returns the negotiated parameter set.
func (c *Channel) Params() *ringlwe.Params { return c.scheme.Params() }

// Scheme returns the scheme the channel's KEM operations run on — for a
// ClientAuto handshake, the scheme constructed for the server-chosen set.
func (c *Channel) Scheme() *ringlwe.Scheme { return c.scheme }

// Resumed reports whether the channel was established from a session
// ticket (skipping the KEM flight) rather than a full handshake.
func (c *Channel) Resumed() bool { return c.resumed }

// Session returns the client's resumption state for the next reconnect —
// non-nil after a handshake that requested a ticket (WithSessionTicket or
// ClientResume) against a ticket-issuing server. Server-side channels and
// plain handshakes return nil.
func (c *Channel) Session() *Session { return c.session }

// deriveKeys keys both directions for the channel's current epoch. Each
// of the four directional keys is SHA-256 over prefix ‖ label ‖ epoch ‖
// shared secret. The prefix binds the protocol generation and the
// negotiated parameter set, and the epoch is the 4-byte big-endian epoch
// counter, so keys from different epochs (and different negotiated sets)
// live in disjoint domains. isClient picks which derivation feeds which
// direction.
func (c *Channel) deriveKeys(shared [ringlwe.SharedKeySize]byte) {
	prefix := "ringlwe-channel-v2 " + c.scheme.Params().Name() + " "
	epoch := binary.BigEndian.AppendUint32(nil, c.epoch)
	expand := func(label string) []byte {
		h := sha256.New()
		h.Write([]byte(prefix + label))
		h.Write(epoch)
		h.Write(shared[:])
		return h.Sum(nil)
	}
	c2s, s2c, c2sMAC, s2cMAC := expand("c2s"), expand("s2c"), expand("c2s-mac"), expand("s2c-mac")
	if !c.isClient {
		c2s, s2c, c2sMAC, s2cMAC = s2c, c2s, s2cMAC, c2sMAC
	}
	c.send.setKeys(c2s[:16], c2sMAC)
	c.recv.setKeys(s2c[:16], s2cMAC)
}

// switchEpoch rolls both directions to the key schedule of the next epoch
// (which restarts the sequence numbers) and resets the rekey record
// counter.
func (c *Channel) switchEpoch(shared [ringlwe.SharedKeySize]byte) {
	c.epoch++
	c.deriveKeys(shared)
	c.records = 0
	c.Rekeys++
	if c.onRekey != nil {
		c.onRekey()
	}
}

// record layout:
//
//	1-byte type ‖ 4-byte length ‖ ciphertext ‖ 16-byte truncated HMAC
//	over (seq ‖ type ‖ length ‖ ciphertext)
//
// The MAC input after the sequence number is exactly the record's wire
// bytes up to the tag, so both directions hash the header and ciphertext
// where they already lie.

// recordState is one direction's record-layer state. setKeys builds the
// expanded AES-128 key and the keyed HMAC-SHA256 once per epoch; each
// record then only builds the CTR stream for its IV and resets the MAC.
type recordState struct {
	block cipher.Block
	mac   hash.Hash
	seq   uint64
	// sum holds the encoded sequence number while it is hashed, then the
	// full HMAC output.
	sum [sha256.Size]byte
}

// setKeys installs one epoch's AES-128 key and MAC key and restarts the
// sequence number at 0.
func (s *recordState) setKeys(key, macKey []byte) {
	block, err := aes.NewCipher(key)
	if err != nil {
		panic(err) // callers pass 16-byte keys
	}
	*s = recordState{block: block, mac: hmac.New(sha256.New, macKey)}
}

// stream XORs src with the AES-128-CTR keystream of the current record
// (IV = seq ‖ 0) into dst, which may be src itself.
func (s *recordState) stream(dst, src []byte) {
	var iv [aes.BlockSize]byte
	binary.BigEndian.PutUint64(iv[:8], s.seq)
	cipher.NewCTR(s.block, iv[:]).XORKeyStream(dst, src)
}

// recordTag returns the truncated HMAC-SHA256 of seq ‖ hdr ‖ ct, hdr
// being the record's wire header (the type byte, then the length).
// The result aliases s.sum and is valid until the next call.
func (s *recordState) recordTag(hdr, ct []byte) []byte {
	binary.BigEndian.PutUint64(s.sum[:8], s.seq)
	s.mac.Reset()
	s.mac.Write(s.sum[:8])
	s.mac.Write(hdr)
	s.mac.Write(ct)
	return s.mac.Sum(s.sum[:0])[:tagLen]
}

// recordBufs recycles record buffers across all channels. sealRecord
// holds one only for its Write; a channel holds the one its last record
// was opened into until its next openRecord. A buffer grows to the
// largest record it has carried.
var recordBufs = sync.Pool{New: func() any { return new([]byte) }}

// getRecordBuf takes a buffer from recordBufs and sizes it to n bytes.
func getRecordBuf(n int) *[]byte {
	bp := recordBufs.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

// releaseRecv returns the buffer of the last opened record to the pool.
func (c *Channel) releaseRecv() {
	if c.rbuf != nil {
		recordBufs.Put(c.rbuf)
		c.rbuf = nil
	}
}

// seal encrypts and writes one record of the given type, with the
// record-layer accounting around sealRecord: server channels count
// records and payload bytes (two uncontended atomic adds), and a traced
// channel emits a PhaseRecordEncrypt span. Untraced client channels pay
// two nil checks.
func (c *Channel) seal(typ byte, msg []byte) error {
	t0 := c.ct.start()
	err := c.sealRecord(typ, msg)
	if c.m != nil && err == nil {
		c.m.recordsSent.Inc(c.shard)
		c.m.bytesSent.Add(c.shard, uint64(len(msg)))
	}
	c.ct.span(obs.PhaseRecordEncrypt, t0, err)
	return err
}

// sealRecord builds type ‖ length ‖ ciphertext ‖ tag in one pooled
// buffer — encrypting msg straight into its slot and tagging the bytes in
// place — and hands the whole record to the transport in a single Write,
// so an unbuffered TCP_NODELAY connection sends one segment per record.
func (c *Channel) sealRecord(typ byte, msg []byte) error {
	if len(msg) > maxRecordLen {
		return fmt.Errorf("protocol: record too large (%d bytes)", len(msg))
	}
	bp := getRecordBuf(recordHdrLen + len(msg) + tagLen)
	rec := *bp
	rec[0] = typ
	binary.BigEndian.PutUint32(rec[1:recordHdrLen], uint32(len(msg)))
	ct := rec[recordHdrLen : recordHdrLen+len(msg)]
	c.send.stream(ct, msg)
	copy(rec[recordHdrLen+len(msg):], c.send.recordTag(rec[:recordHdrLen], ct))
	c.send.seq++
	_, err := c.rw.Write(rec)
	recordBufs.Put(bp)
	return err
}

// open reads and authenticates one record, returning its type. Mirrors
// seal's accounting: records/bytes opened on server channels, a
// PhaseRecordDecrypt span when traced.
func (c *Channel) open() (byte, []byte, error) {
	t0 := c.ct.start()
	typ, msg, err := c.openRecord()
	if c.m != nil && err == nil {
		c.m.recordsRecv.Inc(c.shard)
		c.m.bytesRecv.Add(c.shard, uint64(len(msg)))
	}
	c.ct.span(obs.PhaseRecordDecrypt, t0, err)
	return typ, msg, err
}

// openRecord reads the header, then ciphertext ‖ tag in one read into one
// pooled buffer; it checks the tag before touching the ciphertext and then
// decrypts it in place, returning the plaintext in that same buffer. The
// buffer of the previous record goes back to the pool before the header
// read, so a channel blocked here holds none.
func (c *Channel) openRecord() (byte, []byte, error) {
	c.releaseRecv()
	hdr := c.hdr[:]
	if _, err := io.ReadFull(c.rw, hdr); err != nil {
		return 0, nil, err
	}
	typ := hdr[0]
	length := binary.BigEndian.Uint32(hdr[1:])
	if length > maxRecordLen {
		return 0, nil, fmt.Errorf("protocol: oversized record (%d bytes)", length)
	}
	bp := getRecordBuf(int(length) + tagLen)
	body := *bp
	if _, err := io.ReadFull(c.rw, body); err != nil {
		recordBufs.Put(bp)
		return 0, nil, err
	}
	ct := body[:length:length]
	if !hmac.Equal(body[length:], c.recv.recordTag(hdr, ct)) {
		recordBufs.Put(bp)
		return 0, nil, errors.New("protocol: record authentication failed")
	}
	c.recv.stream(ct, ct)
	c.recv.seq++
	c.rbuf = bp
	return typ, ct, nil
}

// Send seals and writes one data record, transparently rekeying first when
// the channel's rekey threshold has been reached (clients only).
func (c *Channel) Send(msg []byte) error {
	if c.needRekey() {
		if err := c.rekey(); err != nil {
			return err
		}
	}
	if err := c.seal(recordData, msg); err != nil {
		return err
	}
	c.records++
	return nil
}

// Recv reads and opens records until a data record arrives, transparently
// serving in-band rekey requests on the way (servers only).
// Authentication failures and replays surface as errors and poison
// nothing: the caller may close the channel.
//
// The returned slice is valid until the next Recv on the channel, like
// bufio.Scanner.Bytes: its buffer then goes back to a pool shared by all
// channels. Copy it to keep it longer.
func (c *Channel) Recv() ([]byte, error) {
	if len(c.pending) > 0 {
		msg := c.pending[0]
		c.pending = c.pending[1:]
		c.records++
		return msg, nil
	}
	for {
		typ, msg, err := c.open()
		if err != nil {
			return nil, err
		}
		switch typ {
		case recordData:
			c.records++
			return msg, nil
		case recordRekey:
			if c.isClient {
				return nil, errors.New("protocol: unexpected rekey record from server")
			}
			if err := c.acceptRekey(msg); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("protocol: unexpected record type %d", typ)
		}
	}
}

func (c *Channel) needRekey() bool {
	return c.isClient && c.rekeyAfter > 0 && c.records >= c.rekeyAfter
}

// rekey runs the client side of an in-band epoch roll: encapsulate a fresh
// session key to the server's long-term public key, send it as a rekey
// record under the current keys, and switch only after the server
// acknowledges — an intrinsic LPR decryption failure comes back as a nack
// and the client simply encapsulates again.
func (c *Channel) rekey() error {
	t0 := c.ct.start()
	err := c.rekeyFlight()
	c.ct.span(obs.PhaseRekey, t0, err)
	return err
}

func (c *Channel) rekeyFlight() error {
	// The records read here must not recycle the buffer the caller's
	// last Recv returned, which stays valid until its next Recv.
	held := c.rbuf
	c.rbuf = nil
	defer func() {
		c.releaseRecv()
		c.rbuf = held
	}()
	for attempt := 0; attempt <= maxRetries; attempt++ {
		ws := c.scheme.AcquireWorkspace()
		blob, key, err := ws.Encapsulate(c.peerPK)
		c.scheme.ReleaseWorkspace(ws)
		if err != nil {
			return fmt.Errorf("protocol: rekey encapsulate: %w", err)
		}
		if err := c.seal(recordRekey, blob); err != nil {
			return fmt.Errorf("protocol: sending rekey: %w", err)
		}
	await:
		for {
			typ, msg, err := c.open()
			if err != nil {
				return fmt.Errorf("protocol: reading rekey ack: %w", err)
			}
			switch typ {
			case recordRekeyAck:
				c.switchEpoch(key)
				return nil
			case recordRekeyNack:
				break await
			case recordData:
				// An in-flight data record the peer sealed under the old
				// epoch before processing the rekey; queue it for Recv
				// instead of killing the session.
				if len(c.pending) >= maxPendingRecords {
					return errors.New("protocol: too many data records in flight across a rekey")
				}
				c.pending = append(c.pending, bytes.Clone(msg))
			default:
				return fmt.Errorf("protocol: expected rekey ack, got record type %d", typ)
			}
		}
	}
	return errors.New("protocol: too many rekey retries")
}

// acceptRekey runs the server side of an epoch roll: decapsulate the
// client's blob with the long-term private key, acknowledge under the
// current keys, then switch. The blob length is validated against the
// negotiated parameter set before any KEM work.
func (c *Channel) acceptRekey(blob []byte) error {
	t0 := c.ct.start()
	err := c.acceptRekeyFlight(blob)
	c.ct.span(obs.PhaseRekey, t0, err)
	return err
}

func (c *Channel) acceptRekeyFlight(blob []byte) error {
	if want := c.scheme.Params().EncapsulationSize(); len(blob) != want {
		return fmt.Errorf("protocol: rekey blob is %d bytes, want %d: %w",
			len(blob), want, ringlwe.ErrParamsMismatch)
	}
	ws := c.scheme.AcquireWorkspace()
	key, err := ws.Decapsulate(c.localSK, ringlwe.EncapsulatedKey(blob))
	c.scheme.ReleaseWorkspace(ws)
	if errors.Is(err, ringlwe.ErrDecapsulation) {
		return c.seal(recordRekeyNack, nil)
	}
	if err != nil {
		return fmt.Errorf("protocol: rekey decapsulate: %w", err)
	}
	if err := c.seal(recordRekeyAck, nil); err != nil {
		return err
	}
	c.switchEpoch(key)
	return nil
}
