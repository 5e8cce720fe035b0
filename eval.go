package ringlwe

import (
	"encoding"
	"encoding/binary"
	"fmt"
	"slices"

	"ringlwe/internal/core"
)

// Additively homomorphic evaluation. The LPR scheme is linear in its
// plaintext: because the NTT is linear, the coefficient-wise sum of two
// ciphertexts (c̃1, c̃2) encrypts the sum of the underlying plaintext
// polynomials under the same key. With the bit encoding (0 or ⌊q/2⌋ per
// coefficient) the sum of k ciphertexts therefore decrypts to the XOR of
// the k bit-messages — without touching the private key.
//
// Each addition also adds the ciphertexts' noise terms, so an aggregate
// only decrypts reliably while its accumulated noise stays under the
// parameter set's budget. Every Ciphertext tracks its noise in fresh-
// encryption units (Addends: 0 for a zero ciphertext, 1 for a fresh or
// parsed one, sums thereafter) and every evaluation op refuses with
// ErrNoiseBudget — leaving the destination untouched — rather than exceed
// Params.MaxAddends. Use the A1 parameter set for aggregation workloads;
// the paper sets P1/P2 were not tuned for homomorphic depth and afford only
// two addends.

// ErrNoiseBudget reports that an evaluation op would push a ciphertext's
// accumulated noise past Params.MaxAddends, i.e. past the point where the
// aggregate still decrypts within the modeled failure target. The
// destination is left unmodified. Test with errors.Is.
var ErrNoiseBudget = core.ErrNoiseBudget

// Evaluator is the additively homomorphic capability: in-place ciphertext
// addition, subtraction, public-scalar multiplication and multi-ciphertext
// aggregation, all without the private key. *Scheme and *Workspace
// implement it; the ops touch only immutable shared state, so they are
// concurrency-safe on either — even on a Workspace, unlike its
// Encrypt/Decrypt.
type Evaluator interface {
	EvalAddInto(dst, a, b *Ciphertext) error
	EvalSubInto(dst, a, b *Ciphertext) error
	EvalScalarMulInto(dst, a *Ciphertext, k uint32) error
	AggregateInto(dst *Ciphertext, cts []*Ciphertext) error
}

// BatchAggregator aggregates many independent ciphertext groups
// concurrently over the scheme's bounded worker pool.
type BatchAggregator interface {
	AggregateBatch(groups [][]*Ciphertext) ([]*Ciphertext, error)
}

// Addends returns the ciphertext's accumulated noise in fresh-encryption
// units: 0 for a zeroed ciphertext, 1 for a fresh encryption or a parsed
// blob, and the (scalar-weighted) sum of its inputs after evaluation ops.
func (ct *Ciphertext) Addends() uint64 { return ct.inner.Addends }

// Zero resets the ciphertext to the additive identity (all-zero
// polynomials, zero noise) — the natural seed of an AggregateInto or
// EvalAddInto accumulator chain.
func (ct *Ciphertext) Zero() { ct.inner.Zero() }

// checkEval validates one evaluation operand against the scheme's set.
func (s *Scheme) checkEval(what string, ct *Ciphertext) error {
	if ct.params.inner != s.params.inner {
		return paramsMismatch(what)
	}
	return nil
}

// EvalAddInto sets dst = a + b homomorphically; the decryption of dst is
// the XOR of the two plaintexts. dst may alias a or b. Allocation-free; on
// ErrNoiseBudget or a parameter mismatch dst is untouched.
func (s *Scheme) EvalAddInto(dst, a, b *Ciphertext) error {
	if err := s.checkEval("destination ciphertext", dst); err != nil {
		return err
	}
	if err := s.checkEval("ciphertext", a); err != nil {
		return err
	}
	if err := s.checkEval("ciphertext", b); err != nil {
		return err
	}
	return s.inner.EvalAddInto(dst.inner, a.inner, b.inner)
}

// EvalSubInto sets dst = a - b homomorphically. Subtraction accumulates
// noise exactly like addition. dst may alias a or b.
func (s *Scheme) EvalSubInto(dst, a, b *Ciphertext) error {
	if err := s.checkEval("destination ciphertext", dst); err != nil {
		return err
	}
	if err := s.checkEval("ciphertext", a); err != nil {
		return err
	}
	if err := s.checkEval("ciphertext", b); err != nil {
		return err
	}
	return s.inner.EvalSubInto(dst.inner, a.inner, b.inner)
}

// EvalScalarMulInto sets dst = k·a homomorphically for a public scalar k
// (reduced mod q); the plaintext polynomial is scaled by k mod q, so with
// the bit encoding only odd k preserve the message. Noise grows with the
// lifted scalar magnitude ĉ = min(k mod q, q − k mod q): the op charges
// a.Addends·ĉ² budget units. dst may alias a.
func (s *Scheme) EvalScalarMulInto(dst, a *Ciphertext, k uint32) error {
	if err := s.checkEval("destination ciphertext", dst); err != nil {
		return err
	}
	if err := s.checkEval("ciphertext", a); err != nil {
		return err
	}
	return s.inner.EvalScalarMulInto(dst.inner, a.inner, k)
}

// AggregateInto folds every ciphertext of cts into dst: dst = Σ cts, whose
// decryption is the XOR of all the plaintexts. The total noise budget is
// checked before dst is written, so an over-budget aggregation fails fast
// with ErrNoiseBudget and an untouched destination. dst may alias cts[0]
// but no later element. An empty cts zeroes dst. Allocation-free.
//
// The fold is serial: the budget caps a valid group at MaxAddends (~26 on
// A1) ciphertexts, too few for intra-group fan-out to pay for its
// synchronization. Parallelism lives one level up — AggregateBatch folds
// many independent groups concurrently.
func (s *Scheme) AggregateInto(dst *Ciphertext, cts []*Ciphertext) error {
	if err := s.checkEval("destination ciphertext", dst); err != nil {
		return err
	}
	var total uint64
	for _, ct := range cts {
		if err := s.checkEval("ciphertext", ct); err != nil {
			return err
		}
		total += ct.inner.Addends
	}
	if total > uint64(s.params.inner.MaxAddends()) {
		return ErrNoiseBudget
	}
	if len(cts) == 0 {
		dst.inner.Zero()
		return nil
	}
	dst.inner.CopyFrom(cts[0].inner)
	for _, ct := range cts[1:] {
		if err := s.inner.EvalAddInto(dst.inner, dst.inner, ct.inner); err != nil {
			return err
		}
	}
	return nil
}

// AggregateBatch aggregates every group concurrently over the scheme's
// bounded worker pool: out[i] = Σ groups[i]. Safe on a shared Scheme from
// many goroutines. A group exceeding the noise budget fails the whole batch
// with an error naming the group.
func (s *Scheme) AggregateBatch(groups [][]*Ciphertext) ([]*Ciphertext, error) {
	out := make([]*Ciphertext, len(groups))
	err := s.runBatch(len(groups), func(w *Workspace, i int) error {
		dst := NewCiphertext(s.params)
		if err := s.AggregateInto(dst, groups[i]); err != nil {
			return fmt.Errorf("ringlwe: aggregate group %d: %w", i, err)
		}
		out[i] = dst
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// EvalAddInto on a workspace delegates to the owning scheme; evaluation ops
// use no per-goroutine state, the workspace form only keeps call sites
// uniform with EncryptInto/DecryptInto.
func (w *Workspace) EvalAddInto(dst, a, b *Ciphertext) error {
	return w.scheme.EvalAddInto(dst, a, b)
}

// EvalSubInto delegates to the owning scheme; see Scheme.EvalSubInto.
func (w *Workspace) EvalSubInto(dst, a, b *Ciphertext) error {
	return w.scheme.EvalSubInto(dst, a, b)
}

// EvalScalarMulInto delegates to the owning scheme; see
// Scheme.EvalScalarMulInto.
func (w *Workspace) EvalScalarMulInto(dst, a *Ciphertext, k uint32) error {
	return w.scheme.EvalScalarMulInto(dst, a, k)
}

// AggregateInto delegates to the owning scheme; see Scheme.AggregateInto.
func (w *Workspace) AggregateInto(dst *Ciphertext, cts []*Ciphertext) error {
	return w.scheme.AggregateInto(dst, cts)
}

// Aggregate wraps a Ciphertext for wire transport as an aggregate: the
// self-describing encoding (kind 5) carries the addend count in an 8-byte
// big-endian sub-header ahead of the packed body, so the receiver's noise
// accounting survives serialization — unlike the plain ciphertext encoding
// (kind 3), which a parser must assume fresh. The two kinds cannot be
// confused: each Parse pins the header's kind byte.
type Aggregate struct {
	*Ciphertext
}

// aggregateSubHeaderSize is the addend-count field between the wire header
// and the packed body of an aggregate blob.
const aggregateSubHeaderSize = 8

// Compile-time assertions: Aggregate speaks the standard encoding
// contracts with its own kind, not the embedded ciphertext's.
var (
	_ encoding.BinaryMarshaler   = Aggregate{}
	_ encoding.BinaryAppender    = Aggregate{}
	_ encoding.BinaryUnmarshaler = (*Aggregate)(nil)
)

// AppendBinary appends the self-describing aggregate encoding to b
// (encoding.BinaryAppender): header, 8-byte big-endian addend count, packed
// c̃1 ‖ c̃2.
func (a Aggregate) AppendBinary(b []byte) ([]byte, error) {
	id, err := wireID(a.params)
	if err != nil {
		return nil, err
	}
	b = slices.Grow(b, wireHeaderSize+aggregateSubHeaderSize+2*a.params.inner.PolyBytes())
	b = appendWireHeader(b, wireKindAggregate, id)
	b = binary.BigEndian.AppendUint64(b, a.inner.Addends)
	return a.inner.AppendTo(b), nil
}

// MarshalBinary returns the self-describing aggregate encoding
// (encoding.BinaryMarshaler).
func (a Aggregate) MarshalBinary() ([]byte, error) {
	return a.AppendBinary(nil)
}

// UnmarshalBinary decodes a self-describing aggregate blob, recovering the
// parameter set from the header and the noise accounting from the addend
// count (encoding.BinaryUnmarshaler).
func (a *Aggregate) UnmarshalBinary(data []byte) error {
	ct, err := ParseAnyAggregate(data)
	if err != nil {
		return err
	}
	a.Ciphertext = ct
	return nil
}

// parseAggregateBody validates everything after the wire header: the addend
// count against p's budget and the body length. It returns the count and
// the packed body.
func parseAggregateBody(p *Params, rest []byte) (uint64, []byte, error) {
	if len(rest) < aggregateSubHeaderSize {
		return 0, nil, fmt.Errorf("ringlwe: aggregate ciphertext blob is missing the %d-byte addend count", aggregateSubHeaderSize)
	}
	count := binary.BigEndian.Uint64(rest[:aggregateSubHeaderSize])
	if max := uint64(p.inner.MaxAddends()); count > max {
		return 0, nil, fmt.Errorf("%w: aggregate ciphertext claims %d addends, %s allows %d", ErrNoiseBudget, count, p.Name(), max)
	}
	return count, rest[aggregateSubHeaderSize:], nil
}

// ParseAnyAggregate decodes a self-describing aggregate blob without a
// params argument, returning a ciphertext whose Addends reflects the
// transported count. Blobs whose count exceeds the set's MaxAddends are
// rejected with ErrNoiseBudget: they could never have been produced within
// budget, and accepting one would let a peer smuggle an undecryptable
// aggregate past the accounting.
func ParseAnyAggregate(data []byte) (*Ciphertext, error) {
	p, rest, err := parseWireHeader(data, wireKindAggregate)
	if err != nil {
		return nil, err
	}
	count, body, err := parseAggregateBody(p, rest)
	if err != nil {
		return nil, err
	}
	inner := core.NewCiphertext(p.inner)
	if err := core.ParseCiphertextBodyInto(inner, body); err != nil {
		return nil, fmt.Errorf("ringlwe: aggregate %w", err)
	}
	inner.Addends = count
	return &Ciphertext{params: p, inner: inner}, nil
}

// ParseAggregateInto decodes a self-describing aggregate blob into a
// preallocated ciphertext (see NewCiphertext), allocating nothing. The
// blob's parameter set must match the destination's — ErrParamsMismatch
// otherwise — which is what lets a server parse untrusted submissions
// straight into pooled buffers of its own set.
func ParseAggregateInto(ct *Ciphertext, data []byte) error {
	p, rest, err := parseWireHeader(data, wireKindAggregate)
	if err != nil {
		return err
	}
	if p.inner != ct.params.inner {
		return paramsMismatch("aggregate ciphertext blob")
	}
	count, body, err := parseAggregateBody(p, rest)
	if err != nil {
		return err
	}
	if err := core.ParseCiphertextBodyInto(ct.inner, body); err != nil {
		return fmt.Errorf("ringlwe: aggregate %w", err)
	}
	ct.inner.Addends = count
	return nil
}

// ParseCiphertextInto decodes a self-describing plain-ciphertext blob (kind
// 3) into a preallocated ciphertext, allocating nothing; the blob's set
// must match the destination's (ErrParamsMismatch otherwise). The parsed
// ciphertext counts as one fresh noise unit.
func ParseCiphertextInto(ct *Ciphertext, data []byte) error {
	p, body, err := parseWireHeader(data, wireKindCiphertext)
	if err != nil {
		return err
	}
	if p.inner != ct.params.inner {
		return paramsMismatch("ciphertext blob")
	}
	if err := core.ParseCiphertextBodyInto(ct.inner, body); err != nil {
		return fmt.Errorf("ringlwe: %w", err)
	}
	return nil
}
