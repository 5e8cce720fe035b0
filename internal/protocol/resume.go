package protocol

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"ringlwe"
)

// Session resumption
//
// A full v2 handshake that requested a ticket (WithSessionTicket) leaves
// both sides holding a 32-byte resumption master secret derived from the
// KEM shared key, and the client holding the server's encrypted ticket —
// the server's own sealed copy of that state (see internal/ticket). A
// reconnecting client presents the ticket in its hello and both sides
// derive a fresh key schedule from the master secret plus two freshness
// contributions, skipping the KEM flight entirely:
//
//	C → S   HELLO2 (resume flag) ‖ u16 ticket len ‖ ticket ‖ client random
//	S → C   statusOK ‖ server random ‖ ticket blob    (resumption accepted;
//	        the blob reissues a fresh single-use ticket)
//	  — or —
//	S → C   statusFallback ‖ <full v2 server flight>  (expired, replayed or
//	        garbage ticket: the connection transparently completes a full
//	        KEM handshake and issues a fresh ticket)
//
// A resumed handshake therefore costs the server one AES-GCM decrypt and
// one record instead of a KEM decapsulation, and tickets are single-use:
// the server's first Open of a ticket sets its bit in the sealing key's
// claim bitmap and a replayed ticket falls back, so a recorded first
// flight can never establish a second session. The claim follows
// authentication and expiry but precedes the tenant checks, so a ticket
// refused for a params or tenant mismatch is spent too; the fallback
// issues a fresh one.

// Session is a client's resumption state for one server: the ticket, the
// shared resumption master secret, and the scheme/public key of the
// original handshake (kept so resumed channels can still rekey against
// the server's long-term key). A Session is single-use — ClientResume
// consumes it and Channel.Session holds its replacement — and is not safe
// for concurrent use.
type Session struct {
	scheme *ringlwe.Scheme
	pk     *ringlwe.PublicKey
	secret [32]byte
	epoch  uint32
	ticket []byte
	expiry time.Time
}

// Valid reports whether the session still carries an unexpired ticket.
func (s *Session) Valid() bool {
	return s != nil && len(s.ticket) > 0 && time.Now().Before(s.expiry)
}

// resumeMasterSecret derives the resumption master secret both sides
// compute at full-handshake completion. It lives in a domain disjoint
// from the record-key derivation (different label), so handing it to the
// ticket layer reveals nothing about the channel keys.
func resumeMasterSecret(params *ringlwe.Params, shared [ringlwe.SharedKeySize]byte) [32]byte {
	h := sha256.New()
	h.Write([]byte("ringlwe-resume-master " + params.Name()))
	h.Write(shared[:])
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// resumedShared mixes the master secret with both sides' freshness
// contributions into the session secret a resumed channel feeds its v2
// key schedule. The label, parameter-set name and issuing epoch bind the
// context; the client and server randoms make every resumption's keys
// unique even though the master secret is reused across reconnects.
func resumedShared(name string, epoch uint32, secret [32]byte, clientRand, serverRand [randomLen]byte) [ringlwe.SharedKeySize]byte {
	h := sha256.New()
	h.Write([]byte("ringlwe-resumed-session " + name))
	var e [4]byte
	binary.BigEndian.PutUint32(e[:], epoch)
	h.Write(e[:])
	h.Write(secret[:])
	h.Write(clientRand[:])
	h.Write(serverRand[:])
	var out [ringlwe.SharedKeySize]byte
	copy(out[:], h.Sum(nil))
	return out
}

// writeTicketBlob writes a length-prefixed ticket: u16 length ‖ expiry
// (unix ms, 8 bytes) ‖ ticket, with length 0 when no ticket is issued.
func writeTicketBlob(w io.Writer, expiry time.Time, tkt []byte) error {
	if len(tkt) == 0 {
		_, err := w.Write([]byte{0, 0})
		return err
	}
	blob := make([]byte, 2+8+len(tkt))
	binary.BigEndian.PutUint16(blob[:2], uint16(8+len(tkt)))
	binary.BigEndian.PutUint64(blob[2:10], uint64(expiry.UnixMilli()))
	copy(blob[10:], tkt)
	_, err := w.Write(blob)
	return err
}

// readTicketBlob reads a length-prefixed ticket; a zero length yields a
// nil ticket (the server declined to issue one).
func readTicketBlob(r io.Reader) (time.Time, []byte, error) {
	var hdr [2]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return time.Time{}, nil, err
	}
	n := int(binary.BigEndian.Uint16(hdr[:]))
	if n == 0 {
		return time.Time{}, nil, nil
	}
	if n < 8 || n > maxTicketWire {
		return time.Time{}, nil, fmt.Errorf("protocol: ticket blob length %d out of range", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return time.Time{}, nil, err
	}
	expiry := time.UnixMilli(int64(binary.BigEndian.Uint64(body[:8])))
	return expiry, body[8:], nil
}

// ClientResume re-establishes a channel from a prior session without a
// KEM flight: it presents the session's ticket in its hello and derives
// the record keys from the resumption master secret plus fresh randoms.
// If the server refuses the ticket (expired, replayed, rotated away, or
// tickets disabled) the same connection transparently completes a full
// handshake on the session's scheme instead — the caller only sees which
// path ran via Channel.Resumed. Either way the returned channel carries a
// fresh Session (tickets are single-use), so reconnect loops simply chain
// ses = ch.Session().
func ClientResume(rw io.ReadWriter, ses *Session, opts ...Option) (*Channel, error) {
	if ses == nil || len(ses.ticket) == 0 {
		return nil, errors.New("protocol: no session ticket to resume; run Client with WithSessionTicket first")
	}
	o := applyOptions(opts)
	o.wantTicket = true
	ct := newConnTrace(o.tracer)
	id := ses.scheme.Params().WireID()

	var hello [helloV2Len]byte
	binary.BigEndian.PutUint16(hello[:2], helloMagic)
	hello[2] = helloV2Marker
	hello[3] = protocolV2
	binary.BigEndian.PutUint16(hello[4:6], id)
	hello[6] = helloFlagTicket | helloFlagResume

	var clientRand [randomLen]byte
	if _, err := rand.Read(clientRand[:]); err != nil {
		return nil, fmt.Errorf("protocol: client random: %w", err)
	}
	flight := make([]byte, 0, helloV2Len+2+len(ses.ticket)+randomLen)
	flight = append(flight, hello[:]...)
	flight = binary.BigEndian.AppendUint16(flight, uint16(len(ses.ticket)))
	flight = append(flight, ses.ticket...)
	flight = append(flight, clientRand[:]...)
	if _, err := rw.Write(flight); err != nil {
		return nil, fmt.Errorf("protocol: hello: %w", err)
	}

	var status [1]byte
	if _, err := io.ReadFull(rw, status[:]); err != nil {
		return nil, fmt.Errorf("protocol: reading hello status: %w", err)
	}
	switch status[0] {
	case statusOK:
		// Resumption accepted: server random ‖ reissued ticket.
		var serverRand [randomLen]byte
		if _, err := io.ReadFull(rw, serverRand[:]); err != nil {
			return nil, fmt.Errorf("protocol: reading server random: %w", err)
		}
		expiry, tkt, err := readTicketBlob(rw)
		if err != nil {
			return nil, fmt.Errorf("protocol: reading reissued ticket: %w", err)
		}
		ch := &Channel{
			rw:         rw,
			isClient:   true,
			scheme:     ses.scheme,
			peerPK:     ses.pk,
			rekeyAfter: o.rekeyAfter,
			resumed:    true,
			ct:         ct,
		}
		if tkt != nil {
			ch.session = &Session{
				scheme: ses.scheme,
				pk:     ses.pk,
				secret: ses.secret,
				epoch:  ses.epoch,
				ticket: tkt,
				expiry: expiry,
			}
		}
		shared := resumedShared(ses.scheme.Params().Name(), ses.epoch, ses.secret, clientRand, serverRand)
		ch.deriveKeys(shared)
		return ch, nil

	case statusFallback:
		// Resumption refused: the server continues with a full v2 flight
		// on this connection, ticket issuance included.
		pk, err := ringlwe.ReadAnyPublicKeyFrom(rw)
		if err != nil {
			return nil, fmt.Errorf("protocol: reading server key: %w", err)
		}
		if pk.Params().WireID() != id {
			return nil, fmt.Errorf("protocol: fallback server key is %s (wire ID %d), session is ID %d: %w",
				pk.Params().Name(), pk.Params().WireID(), id, ringlwe.ErrParamsMismatch)
		}
		return clientKEMFlight(rw, ct, ses.scheme, pk, o)

	case statusReject:
		return nil, fmt.Errorf("protocol: server does not serve parameter-set ID %d: %w", id, ringlwe.ErrParamsMismatch)
	default:
		return nil, fmt.Errorf("protocol: unknown hello status %d", status[0])
	}
}
