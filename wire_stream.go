package ringlwe

import (
	"fmt"
	"io"
	"sync"

	"ringlwe/internal/core"
)

// Streaming wire I/O. The self-describing format of wire.go is framed so
// that a receiver can act on the six-byte header alone: magic, version and
// kind validate the stream, and the registered parameter-set ID determines
// the exact body length before a single body byte arrives. The WriteTo and
// ReadFrom implementations below are thin wrappers over the byte codec: a
// writer appends the whole blob (AppendBinary) to a pooled buffer and
// hands it to w in one Write; a reader reads the header, bounds the body
// by MaxWireSize, reads exactly that body into the pooled buffer and
// decodes it with the same parser as UnmarshalBinary and ParseAny*. A
// blob therefore costs one Write and two Reads, and no returned object
// aliases the pooled buffer.
//
// PublicKey, PrivateKey and Ciphertext implement io.WriterTo and
// io.ReaderFrom; EncapsulatedKey implements io.WriterTo (and its pointer
// io.ReaderFrom, reusing capacity). The ReadAny*From functions mirror the
// ParseAny* family: the parameter set rides in the header, so no params
// argument is needed.

// MaxWireSize bounds the total size (header plus body) of any
// self-describing object the streaming readers accept. The header's
// parameter-set ID determines the body length; a registered Custom set
// whose objects would exceed this bound is refused before any body byte
// is read, so a hostile header cannot make a reader commit to an
// arbitrarily large read.
const MaxWireSize = 1 << 20

// checkWireSize guards a header-derived body length against MaxWireSize.
func checkWireSize(what string, bodyLen int) error {
	if wireHeaderSize+bodyLen > MaxWireSize {
		return fmt.Errorf("ringlwe: %s body of %d bytes exceeds MaxWireSize", what, bodyLen)
	}
	return nil
}

// wireBuf is a pooled blob buffer for WriteTo and ReadFrom, which are
// pinned at zero steady-state allocations. A reader takes the header into
// hdr before it knows the body length. b holds at most MaxWireSize bytes
// on the read side (22.3 KB for a B1 key or ciphertext).
type wireBuf struct {
	hdr [wireHeaderSize]byte
	b   []byte
}

var wireBufPool = sync.Pool{New: func() any { return new(wireBuf) }}

// blob returns b resized to n bytes, replacing a short b with one make.
// append and slices.Grow would allocate twice under the race detector,
// which drops pooled buffers at random; with one make, a dropped buffer
// costs two allocations to replace, pool entry included.
func (wb *wireBuf) blob(n int) []byte {
	if cap(wb.b) < n {
		wb.b = make([]byte, n)
	}
	return wb.b[:n]
}

// wireBodySize is the body length of a kind of blob under p.
func wireBodySize(p *Params, kind byte) int {
	switch kind {
	case wireKindPrivateKey:
		return p.inner.PolyBytes()
	case wireKindEncapsulatedKey:
		return p.EncapsulationSize()
	}
	return 2 * p.inner.PolyBytes() // public key, ciphertext
}

// writeWire appends a blob of bodySize body bytes to a pooled buffer and
// writes it to w in one Write. appendBinary is an AppendBinary method
// value; it does not escape, so passing one allocates nothing, not even
// for an EncapsulatedKey slice.
func writeWire(w io.Writer, bodySize int, appendBinary func([]byte) ([]byte, error)) (int64, error) {
	wb := wireBufPool.Get().(*wireBuf)
	defer wireBufPool.Put(wb)
	b, err := appendBinary(wb.blob(wireHeaderSize + bodySize)[:0])
	if err != nil {
		return 0, err
	}
	n, err := w.Write(b)
	return int64(n), err
}

// readWire reads one self-describing blob of the given kind from r into a
// pooled buffer and passes it, header included, to parse together with
// the parameter set its header names. It reads the header, resolves the
// set, bounds the body by MaxWireSize and then reads exactly that body:
// two ReadFull calls. parse must not retain blob.
func readWire(r io.Reader, kind byte, parse func(p *Params, blob []byte) error) (int64, error) {
	wb := wireBufPool.Get().(*wireBuf)
	defer wireBufPool.Put(wb)
	what := kindName(kind)
	n, err := io.ReadFull(r, wb.hdr[:])
	if err != nil {
		return int64(n), fmt.Errorf("ringlwe: reading %s header: %w", what, err)
	}
	p, err := parseWireHeaderBytes(wb.hdr[:], kind)
	if err != nil {
		return int64(n), err
	}
	size := wireBodySize(p, kind)
	if err := checkWireSize(what, size); err != nil {
		return int64(n), err
	}
	blob := wb.blob(wireHeaderSize + size)
	copy(blob, wb.hdr[:])
	m, err := io.ReadFull(r, blob[wireHeaderSize:])
	if err != nil {
		return int64(n + m), fmt.Errorf("ringlwe: reading %s body: %w", what, err)
	}
	return int64(n + m), parse(p, blob)
}

// Compile-time assertions: the wire objects satisfy the streaming
// contracts.
var (
	_ io.WriterTo   = (*PublicKey)(nil)
	_ io.ReaderFrom = (*PublicKey)(nil)
	_ io.WriterTo   = (*PrivateKey)(nil)
	_ io.ReaderFrom = (*PrivateKey)(nil)
	_ io.WriterTo   = (*Ciphertext)(nil)
	_ io.ReaderFrom = (*Ciphertext)(nil)
	_ io.WriterTo   = EncapsulatedKey(nil)
	_ io.ReaderFrom = (*EncapsulatedKey)(nil)
)

// WriteTo writes the self-describing encoding of the public key to w in
// one Write (io.WriterTo). The parameter set must be registered; P1 and P2
// always are.
func (pk *PublicKey) WriteTo(w io.Writer) (int64, error) {
	return writeWire(w, wireBodySize(pk.params, wireKindPublicKey), pk.AppendBinary)
}

// ReadFrom reads a self-describing public key from r (io.ReaderFrom),
// recovering the parameter set from the header and reading exactly the
// body that set prescribes.
func (pk *PublicKey) ReadFrom(r io.Reader) (int64, error) {
	return readWire(r, wireKindPublicKey, func(_ *Params, blob []byte) error {
		return pk.UnmarshalBinary(blob)
	})
}

// ReadAnyPublicKeyFrom reads a self-describing public key from r without
// a params argument: the parameter set rides in the header.
func ReadAnyPublicKeyFrom(r io.Reader) (*PublicKey, error) {
	pk := new(PublicKey)
	if _, err := pk.ReadFrom(r); err != nil {
		return nil, err
	}
	return pk, nil
}

// WriteTo writes the self-describing encoding of the private key to w in
// one Write (io.WriterTo).
func (sk *PrivateKey) WriteTo(w io.Writer) (int64, error) {
	return writeWire(w, wireBodySize(sk.params, wireKindPrivateKey), sk.AppendBinary)
}

// ReadFrom reads a self-describing private key from r (io.ReaderFrom).
func (sk *PrivateKey) ReadFrom(r io.Reader) (int64, error) {
	return readWire(r, wireKindPrivateKey, func(_ *Params, blob []byte) error {
		return sk.UnmarshalBinary(blob)
	})
}

// ReadAnyPrivateKeyFrom reads a self-describing private key from r
// without a params argument.
func ReadAnyPrivateKeyFrom(r io.Reader) (*PrivateKey, error) {
	sk := new(PrivateKey)
	if _, err := sk.ReadFrom(r); err != nil {
		return nil, err
	}
	return sk, nil
}

// WriteTo writes the self-describing encoding of the ciphertext to w in
// one Write (io.WriterTo).
func (ct *Ciphertext) WriteTo(w io.Writer) (int64, error) {
	return writeWire(w, wireBodySize(ct.params, wireKindCiphertext), ct.AppendBinary)
}

// ReadFrom reads a self-describing ciphertext from r (io.ReaderFrom).
// When ct already holds buffers of the header's parameter set — a
// NewCiphertext destination reused across reads — the body is unpacked
// into them and the read allocates nothing; otherwise fresh buffers are
// allocated.
func (ct *Ciphertext) ReadFrom(r io.Reader) (int64, error) {
	return readWire(r, wireKindCiphertext, func(p *Params, blob []byte) error {
		inner := ct.inner
		if inner == nil || ct.params.inner != p.inner {
			inner = core.NewCiphertext(p.inner)
		}
		if err := core.ParseCiphertextBodyInto(inner, blob[wireHeaderSize:]); err != nil {
			return fmt.Errorf("ringlwe: %w", err)
		}
		ct.params, ct.inner = p, inner
		return nil
	})
}

// ReadAnyCiphertextFrom reads a self-describing ciphertext from r without
// a params argument.
func ReadAnyCiphertextFrom(r io.Reader) (*Ciphertext, error) {
	ct := new(Ciphertext)
	if _, err := ct.ReadFrom(r); err != nil {
		return nil, err
	}
	return ct, nil
}

// WriteTo writes the self-describing encoding of the encapsulation blob
// to w in one Write (io.WriterTo). See EncapsulatedKey.AppendBinary for
// the Custom-set ambiguity caveat.
func (ek EncapsulatedKey) WriteTo(w io.Writer) (int64, error) {
	return writeWire(w, len(ek), ek.AppendBinary)
}

// ReadFrom reads a self-describing encapsulation blob from r
// (io.ReaderFrom), leaving the raw Decapsulate-ready bytes in ek and
// reusing its capacity — zero allocations once grown.
func (ek *EncapsulatedKey) ReadFrom(r io.Reader) (int64, error) {
	return readWire(r, wireKindEncapsulatedKey, func(_ *Params, blob []byte) error {
		return ek.UnmarshalBinary(blob)
	})
}

// ReadAnyEncapsulatedKeyFrom reads a self-describing encapsulation blob
// from r, returning the parameter set recovered from the header alongside
// the raw Decapsulate-ready bytes.
func ReadAnyEncapsulatedKeyFrom(r io.Reader) (*Params, EncapsulatedKey, error) {
	var p *Params
	var ek EncapsulatedKey
	_, err := readWire(r, wireKindEncapsulatedKey, func(_ *Params, blob []byte) (err error) {
		p, ek, err = ParseAnyEncapsulatedKey(blob)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return p, ek, nil
}
