package core

import (
	"encoding/binary"
	"fmt"
	"slices"

	"ringlwe/internal/ntt"
)

// Serialization packs each coefficient into its channel's bit width (13
// for P1, 14 for P2 and A1, 29 for B1), little-endian within the bit
// stream, matching the paper's observation that coefficients fit in half
// words. A polynomial serializes as its residue rows in channel order,
// each byte-aligned, so every row is independently parseable and
// range-checked; a one-channel set's body is its single row. A one-byte
// header tags the parameter set so mismatches fail loudly instead of
// decrypting noise.
//
// The wire layout is fixed; only the loops that move it are tuned. Every
// path — appendPolys, MarshalInto and the parsers — runs through packPoly
// and unpackPolyInto, and the tests check them byte for byte against the
// original bit-at-a-time loops. The root package's io.WriterTo and
// io.ReaderFrom move whole blobs through these same paths. Eight w-bit
// coefficients fill exactly w bytes, so the rows of the registered sets
// (13 bits for P1, 14 for P2 and A1, 29 for each of B1's rows) are whole
// 8-coefficient groups. Those run
// one straight-line kernel per width, a few 64-bit words per group with
// constant offsets and shifts; other widths and lengths run a generic
// loop that moves a 64-bit word per coefficient. On a 2-vCPU Intel Xeon
// (Go 1.24.0, GOMAXPROCS 2), a 1024-coefficient row unpacks in 1.0–1.2 µs
// and packs in 0.7–1.0 µs through the kernels, against 3.4–4.2 µs and
// 3.8–5.2 µs in the generic loop (BenchmarkUnpackRow, BenchmarkPackRow,
// medians over 13, 14 and 29 bits).
// Unpacking also folds in the canonical-range check, with no branch per
// coefficient; checkRange runs only on a rejected body, to name the first
// offender.

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
// little-endian in the bit stream, overwriting every byte; dst holds
// exactly ⌈len(p)·width/8⌉ bytes, the last one possibly partial. A row of whole 8-coefficient groups at
// 13, 14 or 29 bits — every row of a registered set — runs that width's
// kernel; any other shape runs packGeneric.
// The choice depends on width and lengths only, never on coefficient
// bits.
func packPoly(dst []byte, p ntt.Poly, width uint) {
	if len(p)%8 == 0 && len(dst) == len(p)/8*int(width) {
		switch width {
		case 13:
			pack13(dst, p)
			return
		case 14:
			pack14(dst, p)
			return
		case 29:
			pack29(dst, p)
			return
		}
	}
	packGeneric(dst, p, width)
}

// unpackPolyInto reverses packPoly: coefficient i is the width-bit field
// at bit i·width of src. It reports whether every coefficient is below q:
// the borrows of q − 1 − v are ORed together and tested once per row. Like
// packPoly, it runs a width kernel on a row of whole 13-, 14- or 29-bit
// groups and unpackGeneric otherwise.
func unpackPolyInto(dst ntt.Poly, src []byte, width uint, q uint32) bool {
	qm1 := uint64(q) - 1
	if len(dst)%8 == 0 && len(src) == len(dst)/8*int(width) {
		switch width {
		case 13:
			return unpack13(dst, src, qm1)>>63 == 0
		case 14:
			return unpack14(dst, src, qm1)>>63 == 0
		case 29:
			return unpack29(dst, src, qm1)>>63 == 0
		}
	}
	return unpackGeneric(dst, src, width, qm1)>>63 == 0
}

// packGeneric packs at any width ≤ 32 into a dst of exactly
// ⌈len(p)·width/8⌉ bytes. It keeps a 64-bit accumulator of fewer than 8
// pending bits, adds one masked coefficient per step, and flushes the
// whole bytes with an 8-byte store while eight bytes of dst remain; the
// last few coefficients gather in the accumulator and leave byte by byte.
// The loops branch on width and position only, never on coefficient bits,
// so packing a private key is branch-free in the secret.
func packGeneric(dst []byte, p ntt.Poly, width uint) {
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
	// Fewer than eight bytes of dst remain, so the pending bits and every
	// remaining coefficient fit in acc together.
	for ; i < len(p); i++ {
		acc |= (uint64(p[i]) & mask) << nacc
		nacc += width
	}
	for ; j < len(dst); j++ {
		dst[j] = byte(acc)
		acc >>= 8
	}
}

// unpackGeneric unpacks at any width ≤ 32 and returns the OR of qm1 − v
// over the coefficients v. While eight bytes remain at a field's first
// byte it is one little-endian 64-bit load, shifted by the bit offset
// within that byte and masked (offset + width ≤ 39 bits fit); the last
// few coefficients assemble only the bytes their field spans, so no load
// reads past src.
func unpackGeneric(dst ntt.Poly, src []byte, width uint, qm1 uint64) uint64 {
	mask := uint64(1)<<width - 1
	var over uint64
	var bit uint
	i := 0
	for ; i < len(dst) && int(bit>>3)+8 <= len(src); i++ {
		v := binary.LittleEndian.Uint64(src[bit>>3:]) >> (bit & 7) & mask
		over |= qm1 - v
		dst[i] = uint32(v)
		bit += width
	}
	for ; i < len(dst); i++ {
		first, last := bit>>3, (bit+width-1)>>3
		var w uint64
		for b := first; b <= last; b++ {
			w |= uint64(src[b]) << (8 * (b - first))
		}
		v := w >> (bit & 7) & mask
		over |= qm1 - v
		dst[i] = uint32(v)
		bit += width
	}
	return over
}

// Width kernels. Eight w-bit coefficients fill exactly w bytes, so each
// kernel walks its row one 8-coefficient group at a time through
// (*[8]uint32) and (*[w]byte) array views: constant load and store
// offsets, constant shifts, no bounds check inside a group. A group moves
// as a few overlapping little-endian 64-bit words — two for 13 and 14
// bits (four coefficients each), four for 29 bits (two each). The words
// overlap by whole bytes that both stores write with the same bits, and
// the last word ends on the group's last byte, so a kernel never touches
// a byte outside its group. Callers pass rows of whole groups with
// len(src|dst) = len(row)/8·w.

// putField stores the unpacked field v in *c and returns qm1 − v, whose
// bit 63 is set iff v > qm1. Storing each field as it is checked keeps
// fewer fields live than extracting all eight first, which spilled more
// and measured slower.
func putField(c *uint32, v, qm1 uint64) uint64 {
	*c = uint32(v)
	return qm1 - v
}

// pack13 packs a row of 13-bit groups: bits 0–63 and 40–103 of each.
func pack13(dst []byte, p ntt.Poly) {
	const m = 1<<13 - 1
	for ; len(p) >= 8; p, dst = p[8:], dst[13:] {
		c, d := (*[8]uint32)(p), (*[13]byte)(dst)
		c0, c1, c2, c3 := uint64(c[0]&m), uint64(c[1]&m), uint64(c[2]&m), uint64(c[3]&m)
		c4, c5, c6, c7 := uint64(c[4]&m), uint64(c[5]&m), uint64(c[6]&m), uint64(c[7]&m)
		binary.LittleEndian.PutUint64(d[0:], c0|c1<<13|c2<<26|c3<<39|c4<<52)
		binary.LittleEndian.PutUint64(d[5:], c3>>1|c4<<12|c5<<25|c6<<38|c7<<51)
	}
}

// unpack13 unpacks a row of 13-bit groups and returns the OR of qm1 − v.
func unpack13(dst ntt.Poly, src []byte, qm1 uint64) uint64 {
	const m = 1<<13 - 1
	var over uint64
	for ; len(dst) >= 8; dst, src = dst[8:], src[13:] {
		c, s := (*[8]uint32)(dst), (*[13]byte)(src)
		lo, hi := binary.LittleEndian.Uint64(s[0:]), binary.LittleEndian.Uint64(s[5:])
		over |= putField(&c[0], lo&m, qm1) | putField(&c[1], lo>>13&m, qm1) |
			putField(&c[2], lo>>26&m, qm1) | putField(&c[3], lo>>39&m, qm1) |
			putField(&c[4], hi>>12&m, qm1) | putField(&c[5], hi>>25&m, qm1) |
			putField(&c[6], hi>>38&m, qm1) | putField(&c[7], hi>>51, qm1)
	}
	return over
}

// pack14 packs a row of 14-bit groups: bits 0–63 and 48–111 of each.
func pack14(dst []byte, p ntt.Poly) {
	const m = 1<<14 - 1
	for ; len(p) >= 8; p, dst = p[8:], dst[14:] {
		c, d := (*[8]uint32)(p), (*[14]byte)(dst)
		c0, c1, c2, c3 := uint64(c[0]&m), uint64(c[1]&m), uint64(c[2]&m), uint64(c[3]&m)
		c4, c5, c6, c7 := uint64(c[4]&m), uint64(c[5]&m), uint64(c[6]&m), uint64(c[7]&m)
		binary.LittleEndian.PutUint64(d[0:], c0|c1<<14|c2<<28|c3<<42|c4<<56)
		binary.LittleEndian.PutUint64(d[6:], c3>>6|c4<<8|c5<<22|c6<<36|c7<<50)
	}
}

// unpack14 unpacks a row of 14-bit groups and returns the OR of qm1 − v.
func unpack14(dst ntt.Poly, src []byte, qm1 uint64) uint64 {
	const m = 1<<14 - 1
	var over uint64
	for ; len(dst) >= 8; dst, src = dst[8:], src[14:] {
		c, s := (*[8]uint32)(dst), (*[14]byte)(src)
		lo, hi := binary.LittleEndian.Uint64(s[0:]), binary.LittleEndian.Uint64(s[6:])
		over |= putField(&c[0], lo&m, qm1) | putField(&c[1], lo>>14&m, qm1) |
			putField(&c[2], lo>>28&m, qm1) | putField(&c[3], lo>>42&m, qm1) |
			putField(&c[4], hi>>8&m, qm1) | putField(&c[5], hi>>22&m, qm1) |
			putField(&c[6], hi>>36&m, qm1) | putField(&c[7], hi>>50, qm1)
	}
	return over
}

// pack29 packs a row of 29-bit groups: bits 0–63, 56–119, 112–175 and
// 168–231 of each.
func pack29(dst []byte, p ntt.Poly) {
	const m = 1<<29 - 1
	for ; len(p) >= 8; p, dst = p[8:], dst[29:] {
		c, d := (*[8]uint32)(p), (*[29]byte)(dst)
		c0, c1, c2, c3 := uint64(c[0]&m), uint64(c[1]&m), uint64(c[2]&m), uint64(c[3]&m)
		c4, c5, c6, c7 := uint64(c[4]&m), uint64(c[5]&m), uint64(c[6]&m), uint64(c[7]&m)
		binary.LittleEndian.PutUint64(d[0:], c0|c1<<29|c2<<58)
		binary.LittleEndian.PutUint64(d[7:], c1>>27|c2<<2|c3<<31|c4<<60)
		binary.LittleEndian.PutUint64(d[14:], c3>>25|c4<<4|c5<<33|c6<<62)
		binary.LittleEndian.PutUint64(d[21:], c5>>23|c6<<6|c7<<35)
	}
}

// unpack29 unpacks a row of 29-bit groups and returns the OR of qm1 − v.
func unpack29(dst ntt.Poly, src []byte, qm1 uint64) uint64 {
	const m = 1<<29 - 1
	var over uint64
	for ; len(dst) >= 8; dst, src = dst[8:], src[29:] {
		c, s := (*[8]uint32)(dst), (*[29]byte)(src)
		w0, w1 := binary.LittleEndian.Uint64(s[0:]), binary.LittleEndian.Uint64(s[7:])
		w2, w3 := binary.LittleEndian.Uint64(s[14:]), binary.LittleEndian.Uint64(s[21:])
		over |= putField(&c[0], w0&m, qm1) | putField(&c[1], w0>>29&m, qm1) |
			putField(&c[2], w1>>2&m, qm1) | putField(&c[3], w1>>31&m, qm1) |
			putField(&c[4], w2>>4&m, qm1) | putField(&c[5], w2>>33&m, qm1) |
			putField(&c[6], w3>>6&m, qm1) | putField(&c[7], w3>>35, qm1)
	}
	return over
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
	if !unpackPolyP(pk.A, p, body[:pb]) || !unpackPolyP(pk.P, p, body[pb:]) {
		return nil, fmt.Errorf("core: public key: %w", checkRange(p, pk.A, pk.P))
	}
	return pk, nil
}

// unpackPolyP unpacks one packed polynomial body under p's layout: its
// residue rows, each at its channel's width. It reports whether every
// row is canonical.
func unpackPolyP(dst ntt.Poly, p *Params, src []byte) bool {
	ok, off := true, 0
	for i, m := range p.Basis.Mods {
		rb := p.rowBytes(i)
		ok = unpackPolyInto(p.row(dst, i), src[off:off+rb], m.BitLen(), m.Q) && ok
		off += rb
	}
	return ok
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
	if !unpackPolyP(sk.R2, p, body) {
		return nil, fmt.Errorf("core: private key: %w", checkRange(p, sk.R2))
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
	if !unpackPolyP(ct.C1, p, body[:pb]) || !unpackPolyP(ct.C2, p, body[pb:]) {
		return fmt.Errorf("core: ciphertext: %w", checkRange(p, ct.C1, ct.C2))
	}
	// The ciphertext wire body carries no noise accounting; a parsed blob is
	// assumed fresh. Aggregates travel with an explicit addend count and set
	// this themselves.
	ct.Addends = 1
	return nil
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
// the CRT (or, for one channel, past the threshold decoder). The parsers
// check canonicity as they unpack and call it only on a rejected body, for
// the error naming the first offender.
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
