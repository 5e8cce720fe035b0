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
// The server keeps no per-session state beyond one bit per issued ticket:
// Open recovers everything and claims the ticket, so each ticket opens
// once.
//
// Wire layout:
//
//	key ID (4, big endian) ‖ nonce (12) ‖ AES-GCM(state ‖ tag)
//
// Keys rotate lazily: Seal retires the current key once it is older than
// the rotation period, keeping exactly one predecessor so tickets issued
// just before a rotation still open. Nonces are per-key counters, so a
// ticket is named by its (key, counter) pair, and each key keeps a claim
// bitmap indexed by its counter — the anti-replay bitmap of IPsec (RFC
// 4303 §3.4.3, RFC 6479). A claim is one atomic OR, whatever the number
// of live tickets; a key's bitmap is dropped with the key.
package ticket

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Sealed-state sizes.
const (
	stateVersion = 1
	keyIDLen     = 4
	nonceLen     = 12
	gcmTagLen    = 16

	// StateLen is the size of a ticket's decrypted state: version ‖
	// params ID ‖ epoch ‖ expiry ‖ secret.
	StateLen = 1 + 2 + 4 + 8 + 32
	// TicketLen is the exact wire size of every sealed ticket.
	TicketLen = keyIDLen + nonceLen + StateLen + gcmTagLen
)

// claimPageBits is the number of tickets one claim-bitmap page covers
// (8 KiB of bits).
const claimPageBits = 1 << 16

// Open failures. ErrExpired and ErrUnknownKey mean the client held a
// once-valid ticket too long, ErrReplayed that the ticket already opened
// once; anything else is malformed or forged. All of them should
// downgrade a resumption attempt to a full handshake.
var (
	ErrExpired    = errors.New("ticket: expired")
	ErrUnknownKey = errors.New("ticket: sealed under a retired key")
	ErrMalformed  = errors.New("ticket: malformed")
	ErrReplayed   = errors.New("ticket: already used")
)

// State is the resumption state a ticket transports: everything the
// server needs to resume a channel without touching the KEM.
type State struct {
	ParamsID uint16    // negotiated parameter set (wire ID)
	Epoch    uint32    // issuing channel's key-schedule epoch
	Expiry   time.Time // instant after which Open refuses the ticket
	Secret   [32]byte  // resumption master secret shared with the client
}

// claimPage holds the used bits of claimPageBits consecutive counters.
type claimPage [claimPageBits / 64]atomic.Uint64

// sealKey is one generation of the rotating ticket key.
type sealKey struct {
	id    uint32
	aead  cipher.AEAD
	born  time.Time
	nonce uint64 // per-key counter; guarded by the keeper lock

	// claims[c/claimPageBits] holds the used bit of counter c. Seal
	// appends pages under the keeper lock; bits are set atomically.
	claims []*claimPage
}

// Keeper seals and opens tickets under a rotating AES-128-GCM key whose
// material comes from crypto/rand. Safe for concurrent use.
type Keeper struct {
	rotate time.Duration
	now    func() time.Time

	mu   sync.Mutex
	cur  *sealKey
	prev *sealKey
	next uint32 // next key ID
}

// NewKeeper builds a keeper rotating the sealing key every rotate period
// (tickets should not outlive their sealing key by more than one
// rotation, so pass the ticket lifetime).
func NewKeeper(rotate time.Duration) *Keeper {
	if rotate <= 0 {
		rotate = time.Hour
	}
	return &Keeper{rotate: rotate, now: time.Now}
}

// newKey mints a fresh key generation. Caller holds k.mu.
func (k *Keeper) newKey() *sealKey {
	var material [16]byte
	rand.Read(material[:]) // never fails: a broken entropy source crashes the program
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
	var plain [StateLen]byte
	plain[0] = stateVersion
	binary.BigEndian.PutUint16(plain[1:3], st.ParamsID)
	binary.BigEndian.PutUint32(plain[3:7], st.Epoch)
	binary.BigEndian.PutUint64(plain[7:15], uint64(st.Expiry.UnixMilli()))
	copy(plain[15:], st.Secret[:])

	k.mu.Lock()
	key := k.sealingKey()
	key.nonce++
	ctr := key.nonce
	if ctr/claimPageBits == uint64(len(key.claims)) {
		key.claims = append(key.claims, new(claimPage))
	}
	k.mu.Unlock()

	out := make([]byte, 0, TicketLen)
	out = binary.BigEndian.AppendUint32(out, key.id)
	var nonce [nonceLen]byte
	binary.BigEndian.PutUint64(nonce[4:], ctr)
	out = append(out, nonce[:]...)
	return key.aead.Seal(out, nonce[:], plain[:], nil)
}

// Open authenticates and decrypts a ticket, enforces its expiry, and
// then claims it: the first Open of a ticket returns its state, every
// later one ErrReplayed. A ticket that fails authentication claims
// nothing, so a forgery cannot spend a genuine ticket.
//
// The plaintext is decrypted into the capacity of scratch, which must not
// overlap ticket; with a capacity of StateLen, Open allocates nothing.
// Decrypting into the ticket itself would race when goroutines open one
// ticket slice concurrently.
func (k *Keeper) Open(ticket, scratch []byte) (State, error) {
	if len(ticket) != TicketLen {
		return State{}, fmt.Errorf("%w: %d bytes, want %d", ErrMalformed, len(ticket), TicketLen)
	}
	id := binary.BigEndian.Uint32(ticket[:keyIDLen])
	nonce := ticket[keyIDLen : keyIDLen+nonceLen]
	ctr := binary.BigEndian.Uint64(nonce[4:])

	// The counter is not yet authenticated, so its page may be missing.
	// A ticket that passes the AEAD check below was sealed here, after
	// Seal added its page, and only such a ticket is claimed.
	k.mu.Lock()
	var key *sealKey
	switch {
	case k.cur != nil && k.cur.id == id:
		key = k.cur
	case k.prev != nil && k.prev.id == id:
		key = k.prev
	}
	var page *claimPage
	if key != nil && ctr/claimPageBits < uint64(len(key.claims)) {
		page = key.claims[ctr/claimPageBits]
	}
	k.mu.Unlock()
	if key == nil {
		return State{}, ErrUnknownKey
	}

	plain, err := key.aead.Open(scratch[:0], nonce, ticket[keyIDLen+nonceLen:], nil)
	if err != nil {
		return State{}, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if len(plain) != StateLen || plain[0] != stateVersion {
		return State{}, ErrMalformed
	}
	st := State{
		ParamsID: binary.BigEndian.Uint16(plain[1:3]),
		Epoch:    binary.BigEndian.Uint32(plain[3:7]),
		Expiry:   time.UnixMilli(int64(binary.BigEndian.Uint64(plain[7:15]))),
	}
	copy(st.Secret[:], plain[15:])
	if k.now().After(st.Expiry) {
		return State{}, ErrExpired
	}
	bit := uint64(1) << (ctr % 64)
	if page[ctr%claimPageBits/64].Or(bit)&bit != 0 {
		return State{}, ErrReplayed
	}
	return st, nil
}
