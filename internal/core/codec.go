package core

import "ringlwe/internal/ntt"

// Message codec. Encoding and decoding are the scheme steps that touch
// plaintext bits directly, and the paper leaves constant-time execution
// as future work (§V). Encoding, and decoding of one-channel sets (P1, P2,
// A1), run on branchless arithmetic under every profile: no message bit
// or coefficient value steers a branch or a memory index. Message bits
// are random, so a branch on them would also mispredict about half the
// time. The remaining variable-time components are the K > 1 decode
// (crtDecodeInto's CRT reconstruction branches on the coefficient, under
// every profile, until the fixed-point CRT decode lands), the Knuth-Yao
// samplers (the cdt backend is the constant-time alternative, except for
// its secret-indexed table load), which the CCA KEM's FO
// re-encryption uses under every profile, and Go's own scheduler noise.

// DecodeInto decodes a one-channel polynomial m into the caller-owned
// MessageBytes buffer dst with the threshold test: coefficient c decodes
// to 1 iff q/4 < c < 3q/4, i.e. iff c is closer to q/2 than to 0 (mod q).
// The two comparisons are borrow extractions and each output byte is
// built in a register, so the loop branches on the index only. K > 1
// sets decode through crtDecodeInto.
func DecodeInto(dst []byte, p *Params, m ntt.Poly) {
	q := uint64(p.Q)
	m = m[:8*len(dst)]
	for k := range dst {
		var b uint64
		for j, c := range m[8*k : 8*k+8] {
			c4 := 4 * uint64(c)
			// The borrow of q − 4c is set iff 4c > q, that of 3q − 4c iff
			// 4c > 3q. Both thresholds are odd multiples of q and 4c is
			// even, so equality cannot occur and strict and non-strict
			// coincide.
			b |= ((q - c4 - 1) &^ (3*q - c4 - 1)) >> 63 << j
		}
		dst[k] = byte(b)
	}
}

// addEncoded adds ⌊q/2⌋ to every coefficient whose message bit is set, as
// its residue in each channel: the Encode step fused into the e3 error
// polynomial, allocation-free. Byte k of msg covers coefficients
// [8k, 8k+8) of every row, taken as one fixed-size group so the eight
// lanes run straight-line with constant bit shifts.
func addEncoded(p *Params, dst ntt.Poly, msg []byte) {
	b := p.Basis
	for i, qi := range b.Moduli {
		half := uint64(b.HalfQRes(i))
		q := uint64(qi)
		row := p.row(dst, i)[:8*len(msg)]
		for k, m := range msg {
			c := (*[8]uint32)(row[8*k : 8*k+8])
			c[0] = addHalf(c[0], m, half, q)
			c[1] = addHalf(c[1], m>>1, half, q)
			c[2] = addHalf(c[2], m>>2, half, q)
			c[3] = addHalf(c[3], m>>3, half, q)
			c[4] = addHalf(c[4], m>>4, half, q)
			c[5] = addHalf(c[5], m>>5, half, q)
			c[6] = addHalf(c[6], m>>6, half, q)
			c[7] = addHalf(c[7], m>>7, half, q)
		}
	}
}

// addHalf returns c + half mod q when bit 0 of m is set and c otherwise,
// for c, half < q. The bit becomes a mask over half, and the reduction
// subtracts q and adds it back under the sign mask of the difference.
func addHalf(c uint32, m byte, half, q uint64) uint32 {
	s := uint64(c) + half&-uint64(m&1) - q
	return uint32(s + q&uint64(int64(s)>>63))
}
