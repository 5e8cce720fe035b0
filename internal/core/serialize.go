package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"

	"ringlwe/internal/ntt"
)

// Serialization packs each coefficient into its channel's bit width (13
// for P1, 14 for P2), little-endian within the bit stream, matching the
// paper's observation that coefficients fit in half words. A polynomial
// serializes as its residue rows in channel order, each byte-aligned, so
// every row is independently parseable and range-checked; a one-channel
// set's body is its single row. A one-byte header tags the parameter set
// so mismatches fail loudly instead of decrypting noise.
//
// The wire layout is fixed; only the loops that move it are tuned. Like
// the paper's half-word stores, packPoly and unpackPolyInto move a machine
// word per coefficient rather than a bit: a 64-bit accumulator flushed as
// whole bytes on the way out, one 64-bit load shifted and masked on the
// way in. Every path — appendPolys, MarshalInto and the streaming
// chunks — runs through these two functions, and the tests check them
// byte for byte against the original bit-at-a-time loops.

// LegacyTag returns the one-byte parameter tag the legacy tagged format
// (Bytes/Parse*) opens with: 1 for P1, 2 for P2, 0 for custom sets. The
// self-describing wire format frames the same bodies with a richer header;
// higher layers use this tag to recognise legacy blobs.
func LegacyTag(p *Params) byte {
	t, _ := paramTag(p)
	return t
}

// paramTag returns the stable wire identifier of a parameter set.
func paramTag(p *Params) (byte, error) {
	switch {
	case p.N == 256 && p.Q == 7681:
		return 1, nil
	case p.N == 512 && p.Q == 12289:
		return 2, nil
	case p.N == 256 && p.Q == 12289:
		return 3, nil
	case p.N == 1024 && slices.Equal(p.Basis.Moduli, B1Moduli):
		return 4, nil
	default:
		// Custom sets serialize with tag 0; the caller must know the params.
		return 0, nil
	}
}

// grow extends dst by n bytes, returning the grown slice and the tail
// to pack into. The append-style serializers build on it so one AppendTo
// call performs at most one allocation (none when dst has capacity) — the
// zero-copy seam the public encoding.BinaryAppender implementations ride.
// The tail is not cleared: packPoly overwrites every byte it covers.
func grow(dst []byte, n int) (grown, tail []byte) {
	grown = slices.Grow(dst, n)[:len(dst)+n]
	return grown, grown[len(dst):]
}

// appendPolys appends the packed concatenation of polys to dst.
func appendPolys(dst []byte, p *Params, polys ...ntt.Poly) []byte {
	pb := p.PolyBytes()
	dst, tail := grow(dst, len(polys)*pb)
	for i, poly := range polys {
		packPolyP(tail[i*pb:(i+1)*pb], p, poly)
	}
	return dst
}

// packPoly packs the low width bits of every coefficient of p into dst,
// little-endian in the bit stream, overwriting every byte up to the last
// (partial) one the stream covers. It keeps a 64-bit accumulator of fewer
// than 8 pending bits, adds one masked coefficient per step, and flushes
// the whole bytes: with an 8-byte store while eight bytes of dst remain,
// byte by byte in the tail. The loop branches on width and position only,
// never on coefficient bits, so packing a private key is branch-free in
// the secret.
func packPoly(dst []byte, p ntt.Poly, width uint) {
	mask := uint64(1)<<width - 1
	var acc uint64 // pending bits, fewer than 8 between steps
	var nacc uint  // number of pending bits
	j, i := 0, 0
	for ; i < len(p) && j+8 <= len(dst); i++ {
		acc |= (uint64(p[i]) & mask) << nacc
		nacc += width
		binary.LittleEndian.PutUint64(dst[j:], acc)
		j += int(nacc >> 3)
		acc >>= nacc &^ 7
		nacc &= 7
	}
	for ; i < len(p); i++ {
		acc |= (uint64(p[i]) & mask) << nacc
		for nacc += width; nacc >= 8; nacc -= 8 {
			dst[j] = byte(acc)
			acc >>= 8
			j++
		}
	}
	if nacc > 0 {
		dst[j] = byte(acc)
	}
}

// unpackPolyInto reverses packPoly: coefficient i is the width-bit field
// at bit i·width of src. While eight bytes remain at the field's first
// byte it is one little-endian 64-bit load, shifted by the bit offset
// within that byte and masked (width ≤ 32, so offset + width ≤ 39 bits
// fit); the last few coefficients assemble only the bytes their field
// spans, so no load reads past src.
func unpackPolyInto(dst ntt.Poly, src []byte, width uint) {
	mask := uint64(1)<<width - 1
	var bit uint
	i := 0
	for ; i < len(dst) && int(bit>>3)+8 <= len(src); i++ {
		dst[i] = uint32(binary.LittleEndian.Uint64(src[bit>>3:]) >> (bit & 7) & mask)
		bit += width
	}
	for ; i < len(dst); i++ {
		first, last := bit>>3, (bit+width-1)>>3
		var w uint64
		for b := first; b <= last; b++ {
			w |= uint64(src[b]) << (8 * (b - first))
		}
		dst[i] = uint32(w >> (bit & 7) & mask)
		bit += width
	}
}

// AppendTo appends the packed body ã ‖ p̃ — no parameter tag — to dst and
// returns the extended slice. The body is what the self-describing wire
// format frames with its own header; the legacy tagged format is the same
// body behind a one-byte tag.
func (pk *PublicKey) AppendTo(dst []byte) []byte {
	return appendPolys(dst, pk.Params, pk.A, pk.P)
}

// Bytes serializes the public key as tag ‖ pack(ã) ‖ pack(p̃).
func (pk *PublicKey) Bytes() []byte {
	tag, _ := paramTag(pk.Params)
	out := make([]byte, 1, 1+2*pk.Params.PolyBytes())
	out[0] = tag
	return pk.AppendTo(out)
}

// ParsePublicKeyBody reverses AppendTo: it parses a bare packed body of
// exactly 2·PolyBytes under the given parameters.
func ParsePublicKeyBody(p *Params, body []byte) (*PublicKey, error) {
	pb := p.PolyBytes()
	if len(body) != 2*pb {
		return nil, fmt.Errorf("core: public key: body is %d bytes, want %d", len(body), 2*pb)
	}
	pk := &PublicKey{Params: p, A: p.newPoly(), P: p.newPoly()}
	unpackPolyP(pk.A, p, body[:pb])
	unpackPolyP(pk.P, p, body[pb:])
	if err := checkRange(p, pk.A, pk.P); err != nil {
		return nil, fmt.Errorf("core: public key: %w", err)
	}
	return pk, nil
}

// unpackPolyP unpacks one packed polynomial body under p's layout: its
// residue rows, each at its channel's width.
func unpackPolyP(dst ntt.Poly, p *Params, src []byte) {
	off := 0
	for i, m := range p.Basis.Mods {
		rb := p.rowBytes(i)
		unpackPolyInto(p.row(dst, i), src[off:off+rb], m.BitLen())
		off += rb
	}
}

// packPolyP is the packing counterpart of unpackPolyP.
func packPolyP(dst []byte, p *Params, poly ntt.Poly) {
	off := 0
	for i, m := range p.Basis.Mods {
		rb := p.rowBytes(i)
		packPoly(dst[off:off+rb], p.row(poly, i), m.BitLen())
		off += rb
	}
}

// ParsePublicKey reverses PublicKey.Bytes under the given parameters.
func ParsePublicKey(p *Params, data []byte) (*PublicKey, error) {
	if err := checkBlob(p, data, 2); err != nil {
		return nil, fmt.Errorf("core: public key: %w", err)
	}
	return ParsePublicKeyBody(p, data[1:])
}

// AppendTo appends the packed body pack(r̃2) — no parameter tag — to dst.
func (sk *PrivateKey) AppendTo(dst []byte) []byte {
	return appendPolys(dst, sk.Params, sk.R2)
}

// Bytes serializes the private key as tag ‖ pack(r̃2).
func (sk *PrivateKey) Bytes() []byte {
	tag, _ := paramTag(sk.Params)
	out := make([]byte, 1, 1+sk.Params.PolyBytes())
	out[0] = tag
	return sk.AppendTo(out)
}

// ParsePrivateKeyBody reverses AppendTo: it parses a bare packed body of
// exactly PolyBytes under the given parameters.
func ParsePrivateKeyBody(p *Params, body []byte) (*PrivateKey, error) {
	if len(body) != p.PolyBytes() {
		return nil, fmt.Errorf("core: private key: body is %d bytes, want %d", len(body), p.PolyBytes())
	}
	sk := &PrivateKey{Params: p, R2: p.newPoly()}
	unpackPolyP(sk.R2, p, body)
	if err := checkRange(p, sk.R2); err != nil {
		return nil, fmt.Errorf("core: private key: %w", err)
	}
	return sk, nil
}

// ParsePrivateKey reverses PrivateKey.Bytes under the given parameters.
func ParsePrivateKey(p *Params, data []byte) (*PrivateKey, error) {
	if err := checkBlob(p, data, 1); err != nil {
		return nil, fmt.Errorf("core: private key: %w", err)
	}
	return ParsePrivateKeyBody(p, data[1:])
}

// AppendTo appends the packed body c̃1 ‖ c̃2 — no parameter tag — to dst.
func (ct *Ciphertext) AppendTo(dst []byte) []byte {
	return appendPolys(dst, ct.Params, ct.C1, ct.C2)
}

// Bytes serializes the ciphertext as tag ‖ pack(c̃1) ‖ pack(c̃2).
func (ct *Ciphertext) Bytes() []byte {
	out := make([]byte, 1+2*ct.Params.PolyBytes())
	ct.MarshalInto(out) // freshly sized buffer: cannot fail
	return out
}

// MarshalInto serializes the ciphertext into a caller-owned buffer of
// exactly 1+2·PolyBytes bytes (the KEM workspace path reuses one blob
// allocation per encapsulation this way).
func (ct *Ciphertext) MarshalInto(dst []byte) error {
	p := ct.Params
	if len(dst) != 1+2*p.PolyBytes() {
		return fmt.Errorf("core: ciphertext buffer is %d bytes, want %d", len(dst), 1+2*p.PolyBytes())
	}
	tag, _ := paramTag(p)
	dst[0] = tag
	packPolyP(dst[1:1+p.PolyBytes()], p, ct.C1)
	packPolyP(dst[1+p.PolyBytes():], p, ct.C2)
	return nil
}

// ParseCiphertext reverses Ciphertext.Bytes under the given parameters.
func ParseCiphertext(p *Params, data []byte) (*Ciphertext, error) {
	ct := NewCiphertext(p)
	if err := ParseCiphertextInto(ct, data); err != nil {
		return nil, err
	}
	return ct, nil
}

// ParseCiphertextInto deserializes data into a preallocated ciphertext
// (see NewCiphertext), allocating nothing. On error the ciphertext's
// contents are unspecified.
func ParseCiphertextInto(ct *Ciphertext, data []byte) error {
	if err := checkBlob(ct.Params, data, 2); err != nil {
		return fmt.Errorf("core: ciphertext: %w", err)
	}
	return ParseCiphertextBodyInto(ct, data[1:])
}

// ParseCiphertextBodyInto reverses AppendTo into a preallocated ciphertext:
// it parses a bare packed body of exactly 2·PolyBytes, allocating nothing.
// On error the ciphertext's contents are unspecified.
func ParseCiphertextBodyInto(ct *Ciphertext, body []byte) error {
	p := ct.Params
	if len(ct.C1) != p.polyLen() || len(ct.C2) != p.polyLen() {
		return fmt.Errorf("core: ciphertext: buffers hold %d/%d coefficients, want %d (use NewCiphertext)",
			len(ct.C1), len(ct.C2), p.polyLen())
	}
	pb := p.PolyBytes()
	if len(body) != 2*pb {
		return fmt.Errorf("core: ciphertext: body is %d bytes, want %d", len(body), 2*pb)
	}
	unpackPolyP(ct.C1, p, body[:pb])
	unpackPolyP(ct.C2, p, body[pb:])
	if err := checkRange(p, ct.C1, ct.C2); err != nil {
		return fmt.Errorf("core: ciphertext: %w", err)
	}
	// The ciphertext wire body carries no noise accounting; a parsed blob is
	// assumed fresh. Aggregates travel with an explicit addend count and set
	// this themselves.
	ct.Addends = 1
	return nil
}

// Streaming body I/O. The packed format groups eight coefficients of a
// row into width whole bytes, so any multiple of eight coefficients
// starts on a byte boundary; the writers and readers below exploit that
// to move bodies through a small stack chunk instead of materializing the
// whole blob — the seam behind the public io.WriterTo/io.ReaderFrom
// implementations.

// streamChunkCoeffs is the number of coefficients packed per streaming
// chunk. It is a multiple of 8 so every chunk begins byte-aligned, and
// small enough that the chunk buffer lives on the stack (8·CoeffBits bytes
// per 64 coefficients: 104 B for P1, 112 B for P2, 256 B worst case).
const streamChunkCoeffs = 64

// streamChunkBufSize bounds the per-chunk byte count: 64 coefficients at
// the 32-bit ceiling on CoeffBits.
const streamChunkBufSize = streamChunkCoeffs / 8 * 32

// streamChunkPool recycles chunk buffers: a stack array would escape
// through the io.Writer/io.Reader interface call, so pooling is what keeps
// the streaming paths at zero steady-state allocations.
var streamChunkPool = sync.Pool{New: func() any { return new([streamChunkBufSize]byte) }}

// writePolysTo writes the packed concatenation of polys to w chunk by
// chunk, row by row at each channel's width, returning the byte count
// written. It allocates no slice proportional to the body.
func writePolysTo(w io.Writer, p *Params, polys ...ntt.Poly) (int64, error) {
	buf := streamChunkPool.Get().(*[streamChunkBufSize]byte)
	defer streamChunkPool.Put(buf)
	var written int64
	for _, poly := range polys {
		for i, m := range p.Basis.Mods {
			width := m.BitLen()
			row := p.row(poly, i)
			for off := 0; off < len(row); off += streamChunkCoeffs {
				end := min(off+streamChunkCoeffs, len(row))
				nb := (end - off) / 8 * int(width)
				chunk := buf[:nb]
				packPoly(chunk, row[off:end], width)
				n, err := w.Write(chunk)
				written += int64(n)
				if err != nil {
					return written, err
				}
			}
		}
	}
	return written, nil
}

// readPolysFrom fills polys from the packed stream r chunk by chunk,
// returning the byte count consumed. Coefficients are range-checked after
// each poly completes, as the one-shot parsers do.
func readPolysFrom(r io.Reader, p *Params, polys ...ntt.Poly) (int64, error) {
	buf := streamChunkPool.Get().(*[streamChunkBufSize]byte)
	defer streamChunkPool.Put(buf)
	var read int64
	for _, poly := range polys {
		for i, m := range p.Basis.Mods {
			width := m.BitLen()
			row := p.row(poly, i)
			for off := 0; off < len(row); off += streamChunkCoeffs {
				end := min(off+streamChunkCoeffs, len(row))
				nb := (end - off) / 8 * int(width)
				n, err := io.ReadFull(r, buf[:nb])
				read += int64(n)
				if err != nil {
					return read, err
				}
				unpackPolyInto(row[off:end], buf[:nb], width)
			}
		}
		if err := checkRange(p, poly); err != nil {
			return read, err
		}
	}
	return read, nil
}

// WriteBodyTo streams the packed body ã ‖ p̃ to w without materializing it.
func (pk *PublicKey) WriteBodyTo(w io.Writer) (int64, error) {
	return writePolysTo(w, pk.Params, pk.A, pk.P)
}

// ReadPublicKeyBodyFrom streams a bare packed body of exactly 2·PolyBytes
// from r into a fresh public key, returning the byte count consumed.
func ReadPublicKeyBodyFrom(p *Params, r io.Reader) (*PublicKey, int64, error) {
	pk := &PublicKey{Params: p, A: p.newPoly(), P: p.newPoly()}
	n, err := readPolysFrom(r, p, pk.A, pk.P)
	if err != nil {
		return nil, n, fmt.Errorf("core: public key: %w", err)
	}
	return pk, n, nil
}

// WriteBodyTo streams the packed body pack(r̃2) to w.
func (sk *PrivateKey) WriteBodyTo(w io.Writer) (int64, error) {
	return writePolysTo(w, sk.Params, sk.R2)
}

// ReadPrivateKeyBodyFrom streams a bare packed body of exactly PolyBytes
// from r into a fresh private key.
func ReadPrivateKeyBodyFrom(p *Params, r io.Reader) (*PrivateKey, int64, error) {
	sk := &PrivateKey{Params: p, R2: p.newPoly()}
	n, err := readPolysFrom(r, p, sk.R2)
	if err != nil {
		return nil, n, fmt.Errorf("core: private key: %w", err)
	}
	return sk, n, nil
}

// WriteBodyTo streams the packed body c̃1 ‖ c̃2 to w.
func (ct *Ciphertext) WriteBodyTo(w io.Writer) (int64, error) {
	return writePolysTo(w, ct.Params, ct.C1, ct.C2)
}

// ReadCiphertextBodyFrom streams a bare packed body of exactly 2·PolyBytes
// from r into a preallocated ciphertext (see NewCiphertext), allocating
// nothing. On error the ciphertext's contents are unspecified.
func ReadCiphertextBodyFrom(ct *Ciphertext, r io.Reader) (int64, error) {
	p := ct.Params
	if len(ct.C1) != p.polyLen() || len(ct.C2) != p.polyLen() {
		return 0, fmt.Errorf("core: ciphertext: buffers hold %d/%d coefficients, want %d (use NewCiphertext)",
			len(ct.C1), len(ct.C2), p.polyLen())
	}
	n, err := readPolysFrom(r, p, ct.C1, ct.C2)
	if err != nil {
		return n, fmt.Errorf("core: ciphertext: %w", err)
	}
	ct.Addends = 1 // streamed bodies are fresh, like ParseCiphertextBodyInto
	return n, nil
}

func checkBlob(p *Params, data []byte, polys int) error {
	want := 1 + polys*p.PolyBytes()
	if len(data) != want {
		return fmt.Errorf("blob is %d bytes, want %d", len(data), want)
	}
	tag, _ := paramTag(p)
	if data[0] != tag {
		return fmt.Errorf("parameter tag %d, want %d (%s)", data[0], tag, p.Name)
	}
	return nil
}

// checkRange enforces per-row canonicity: row i's coefficients must be
// below qᵢ. Oversized residues would smuggle non-canonical values through
// the CRT (or, for one channel, past the threshold decoder).
func checkRange(p *Params, polys ...ntt.Poly) error {
	for _, poly := range polys {
		for i, qi := range p.Basis.Moduli {
			for j, c := range p.row(poly, i) {
				if c >= qi {
					return fmt.Errorf("residue row %d coefficient %d out of range: %d ≥ q%d", i, j, c, i+1)
				}
			}
		}
	}
	return nil
}
