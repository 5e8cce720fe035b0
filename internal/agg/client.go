package agg

import (
	"encoding/binary"
	"fmt"

	"ringlwe"
	"ringlwe/internal/protocol"
)

// Client is the device side of the aggregation protocol on one
// established channel. Like the channel itself it is not safe for
// concurrent use; each device runs its own channel and client.
//
// Every method finishes with the response record before it returns: the
// body roundTrip hands back aliases the channel's record buffer, valid
// only until the next Recv on the channel (the next request), so methods
// parse or copy it at once — Query's ParseAnyAggregate copies the
// aggregate out.
type Client struct {
	ch  *protocol.Channel
	buf []byte // request scratch, reused across calls
}

// NewClient wraps an established channel (from protocol.Client,
// ClientAuto or ClientResume) for aggregation requests.
func NewClient(ch *protocol.Channel) *Client {
	return &Client{ch: ch, buf: make([]byte, 0, 1+streamIDSize+TokenSize)}
}

// roundTrip sends one request record and returns the response body after
// mapping its status byte. The body is valid until the next roundTrip.
func (c *Client) roundTrip(req []byte) ([]byte, error) {
	if err := c.ch.Send(req); err != nil {
		return nil, fmt.Errorf("agg: sending request: %w", err)
	}
	resp, err := c.ch.Recv()
	if err != nil {
		return nil, fmt.Errorf("agg: reading response: %w", err)
	}
	if len(resp) < 1 {
		return nil, ErrMalformed
	}
	if err := statusErr(resp[0]); err != nil {
		return nil, err
	}
	return resp[1:], nil
}

// CreateStream allocates a stream for the channel's parameter set,
// guarded by the given owner token, and returns its ID. The token
// authorizes Query and Reset; share the ID (not the token) with the
// devices that submit.
func (c *Client) CreateStream(token [TokenSize]byte) (uint64, error) {
	c.buf = append(c.buf[:0], opCreate)
	c.buf = append(c.buf, token[:]...)
	body, err := c.roundTrip(c.buf)
	if err != nil {
		return 0, err
	}
	if len(body) != streamIDSize {
		return 0, ErrMalformed
	}
	return binary.BigEndian.Uint64(body), nil
}

// Submit folds one encrypted sample into the stream and returns the
// accumulator's new addend count. blob is a self-describing wire blob: a
// plain ciphertext (Ciphertext.Bytes is the legacy body — use
// MarshalBinary) or a kind-5 aggregate for device-side pre-folds. A fold
// past the parameter set's MaxAddends is refused with
// ringlwe.ErrNoiseBudget and leaves the accumulator untouched.
func (c *Client) Submit(id uint64, blob []byte) (uint64, error) {
	c.buf = append(c.buf[:0], opSubmit)
	c.buf = binary.BigEndian.AppendUint64(c.buf, id)
	c.buf = append(c.buf, blob...)
	body, err := c.roundTrip(c.buf)
	if err != nil {
		return 0, err
	}
	if len(body) != streamIDSize {
		return 0, ErrMalformed
	}
	return binary.BigEndian.Uint64(body), nil
}

// SubmitCiphertext is Submit for an in-memory ciphertext.
func (c *Client) SubmitCiphertext(id uint64, ct *ringlwe.Ciphertext) (uint64, error) {
	blob, err := ct.MarshalBinary()
	if err != nil {
		return 0, err
	}
	return c.Submit(id, blob)
}

// Query returns the stream's current aggregate — addend count intact, so
// the owner knows how many noise units the decryption carries. Requires
// the owner token.
func (c *Client) Query(id uint64, token [TokenSize]byte) (*ringlwe.Ciphertext, error) {
	body, err := c.roundTrip(c.authReq(opQuery, id, token))
	if err != nil {
		return nil, err
	}
	return ringlwe.ParseAnyAggregate(body)
}

// Reset zeroes the stream's accumulator for the next aggregation window,
// returning the addend count it released. Requires the owner token.
func (c *Client) Reset(id uint64, token [TokenSize]byte) (uint64, error) {
	body, err := c.roundTrip(c.authReq(opReset, id, token))
	if err != nil {
		return 0, err
	}
	if len(body) != streamIDSize {
		return 0, ErrMalformed
	}
	return binary.BigEndian.Uint64(body), nil
}

// authReq assembles an "op ‖ stream ID ‖ token" request in the client's
// scratch buffer.
func (c *Client) authReq(op byte, id uint64, token [TokenSize]byte) []byte {
	c.buf = append(c.buf[:0], op)
	c.buf = binary.BigEndian.AppendUint64(c.buf, id)
	c.buf = append(c.buf, token[:]...)
	return c.buf
}
