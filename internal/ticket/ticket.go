// Package ticket implements encrypted session-resumption tickets for the
// secure-channel server: opaque client-held blobs that let a reconnecting
// peer re-establish a channel without a fresh KEM flight — the single
// biggest reconnect latency/energy win for the constrained clients the
// paper targets.
//
// A ticket is the server's own state, sealed to itself with AES-128-GCM
// under a rotating ticket key and handed to the client at handshake
// completion. The sealed state names the negotiated parameter set, the
// issuing channel's key-schedule epoch, an expiry instant, and the
// 32-byte resumption master secret both sides derived from the handshake.
// The server keeps no per-session state: Open recovers everything, and a
// sharded replay cache (see ReplayCache) makes each ticket single-use.
//
// Wire layout:
//
//	key ID (4, big endian) ‖ nonce (12) ‖ AES-GCM(state ‖ tag)
//
// Keys rotate lazily: Seal retires the current key once it is older than
// the rotation period, keeping exactly one predecessor so tickets issued
// just before a rotation still open. Nonces are per-key counters, so the
// (key, nonce) pair — the replay ID — is unique for every ticket ever
// sealed.
package ticket

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"
)

// Sealed-state sizes.
const (
	stateVersion = 1
	stateLen     = 1 + 2 + 4 + 8 + 32 // version ‖ params ID ‖ epoch ‖ expiry ‖ secret
	keyIDLen     = 4
	nonceLen     = 12
	gcmTagLen    = 16

	// TicketLen is the exact wire size of every sealed ticket.
	TicketLen = keyIDLen + nonceLen + stateLen + gcmTagLen

	// ReplayIDLen is the size of the unique per-ticket replay identifier.
	ReplayIDLen = keyIDLen + nonceLen
)

// Open failures. ErrExpired and ErrUnknownKey mean the client held a
// once-valid ticket too long; anything else is malformed or forged. All
// of them should downgrade a resumption attempt to a full handshake.
var (
	ErrExpired    = errors.New("ticket: expired")
	ErrUnknownKey = errors.New("ticket: sealed under a retired key")
	ErrMalformed  = errors.New("ticket: malformed")
)

// State is the resumption state a ticket transports: everything the
// server needs to resume a channel without touching the KEM.
type State struct {
	ParamsID uint16    // negotiated parameter set (wire ID)
	Epoch    uint32    // issuing channel's key-schedule epoch
	Expiry   time.Time // instant after which Open refuses the ticket
	Secret   [32]byte  // resumption master secret shared with the client
}

// sealKey is one generation of the rotating ticket key.
type sealKey struct {
	id    uint32
	aead  cipher.AEAD
	born  time.Time
	nonce uint64 // per-key counter; guarded by the keeper lock
}

// Keeper seals and opens tickets under a rotating AES-128-GCM key. Safe
// for concurrent use; key material is drawn from the configured reader
// (callers hand in a locked reader when sharing one stream).
type Keeper struct {
	rand   io.Reader
	rotate time.Duration
	now    func() time.Time

	mu   sync.Mutex
	cur  *sealKey
	prev *sealKey
	next uint32 // next key ID
}

// NewKeeper builds a keeper drawing key material from rand and rotating
// the sealing key every rotate period (tickets should not outlive their
// sealing key by more than one rotation, so pass the ticket lifetime).
func NewKeeper(rand io.Reader, rotate time.Duration) *Keeper {
	if rotate <= 0 {
		rotate = time.Hour
	}
	return &Keeper{rand: rand, rotate: rotate, now: time.Now}
}

// newKey mints a fresh key generation. Caller holds k.mu.
func (k *Keeper) newKey() *sealKey {
	var material [16]byte
	if _, err := io.ReadFull(k.rand, material[:]); err != nil {
		panic("ticket: key material reader failed: " + err.Error())
	}
	block, err := aes.NewCipher(material[:])
	if err != nil {
		panic("ticket: " + err.Error())
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		panic("ticket: " + err.Error())
	}
	k.next++
	return &sealKey{id: k.next, aead: aead, born: k.now()}
}

// sealingKey returns the current key, rotating first if it has aged out.
// Caller holds k.mu.
func (k *Keeper) sealingKey() *sealKey {
	if k.cur == nil {
		k.cur = k.newKey()
	} else if k.now().Sub(k.cur.born) >= k.rotate {
		k.prev, k.cur = k.cur, k.newKey()
	}
	return k.cur
}

// Seal encrypts the state into a fresh single-use ticket.
func (k *Keeper) Seal(st State) []byte {
	var plain [stateLen]byte
	plain[0] = stateVersion
	binary.BigEndian.PutUint16(plain[1:3], st.ParamsID)
	binary.BigEndian.PutUint32(plain[3:7], st.Epoch)
	binary.BigEndian.PutUint64(plain[7:15], uint64(st.Expiry.UnixMilli()))
	copy(plain[15:], st.Secret[:])

	k.mu.Lock()
	key := k.sealingKey()
	key.nonce++
	ctr := key.nonce
	k.mu.Unlock()

	out := make([]byte, 0, TicketLen)
	out = binary.BigEndian.AppendUint32(out, key.id)
	var nonce [nonceLen]byte
	binary.BigEndian.PutUint64(nonce[4:], ctr)
	out = append(out, nonce[:]...)
	return key.aead.Seal(out, nonce[:], plain[:], nil)
}

// Open authenticates and decrypts a ticket, returning the sealed state
// and the ticket's unique replay ID. It enforces expiry but not replay —
// pair it with a ReplayCache.
func (k *Keeper) Open(ticket []byte) (State, [ReplayIDLen]byte, error) {
	var replayID [ReplayIDLen]byte
	if len(ticket) != TicketLen {
		return State{}, replayID, fmt.Errorf("%w: %d bytes, want %d", ErrMalformed, len(ticket), TicketLen)
	}
	id := binary.BigEndian.Uint32(ticket[:keyIDLen])

	k.mu.Lock()
	var key *sealKey
	switch {
	case k.cur != nil && k.cur.id == id:
		key = k.cur
	case k.prev != nil && k.prev.id == id:
		key = k.prev
	}
	k.mu.Unlock()
	if key == nil {
		return State{}, replayID, ErrUnknownKey
	}

	nonce := ticket[keyIDLen : keyIDLen+nonceLen]
	plain, err := key.aead.Open(nil, nonce, ticket[keyIDLen+nonceLen:], nil)
	if err != nil {
		return State{}, replayID, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if len(plain) != stateLen || plain[0] != stateVersion {
		return State{}, replayID, ErrMalformed
	}
	st := State{
		ParamsID: binary.BigEndian.Uint16(plain[1:3]),
		Epoch:    binary.BigEndian.Uint32(plain[3:7]),
		Expiry:   time.UnixMilli(int64(binary.BigEndian.Uint64(plain[7:15]))),
	}
	copy(st.Secret[:], plain[15:])
	if k.now().After(st.Expiry) {
		return State{}, replayID, ErrExpired
	}
	copy(replayID[:], ticket[:ReplayIDLen])
	return st, replayID, nil
}
