package core

import "ringlwe/internal/ntt"

// Constant-time message codec — the paper's future-work item ("we further
// intend to extend our scheme to allow for constant-time execution", §V).
// Encoding and decoding are the scheme steps that touch plaintext bits
// directly, so they are the first candidates for hardening; these variants
// use only branchless arithmetic with no secret-dependent control flow or
// memory indexing. A scheme built with ConstantTimeDecode runs them on
// encryption and on every decryption (one-shot, workspace and batch: all go
// through decryptInto); the scheme-less PrivateKey.Decrypt always decodes
// with branches. The remaining variable-time components are the Knuth-Yao
// sampler (inherently input-dependent; the cdt backend is the constant-time
// alternative), which the CCA KEM's FO re-encryption uses under every
// profile, and Go's own scheduler noise.

// DecodeConstantTimeInto is DecodeInto without secret-dependent branches:
// the threshold test q/4 < c < 3q/4 becomes two borrow extractions. It
// writes into a caller-owned MessageBytes buffer and allocates nothing, so
// the hardened decrypt path stays at zero allocations like the branching
// one.
func DecodeConstantTimeInto(dst []byte, p *Params, m ntt.Poly) {
	if p.K() > 1 {
		// The CRT decoder's borrow-based threshold test is already
		// branchless; one decoder serves both profiles.
		crtDecodeInto(dst, p, m)
		return
	}
	clear(dst)
	q := uint64(p.Q)
	for i := 0; i < p.N; i++ {
		c4 := 4 * uint64(m[i])
		// gtLo = 1 iff 4c > q; gtHi = 1 iff 4c > 3q. Both thresholds are
		// odd multiples of q with c4 even, so equality cannot occur and
		// strict/non-strict coincide.
		gtLo := (q - c4 - 1) >> 63 // borrow of q - 4c
		gtHi := (3*q - c4 - 1) >> 63
		bit := byte(gtLo &^ gtHi)
		dst[i/8] |= bit << (i % 8)
	}
}

// AddEncodedConstantTime is the encrypt-side counterpart of the hardened
// decoder: addEncoded (the Encode step fused into the e3 error polynomial)
// with the message bit selecting 0 or ⌊q/2⌋ through a mask and the mod-q
// reduction done by borrow extraction instead of a comparison, so no
// plaintext bit steers a branch or a memory index. Each channel adds the
// residue of ⌊q/2⌋.
func AddEncodedConstantTime(p *Params, dst ntt.Poly, msg []byte) {
	b := p.Basis
	for i, qi := range b.Moduli {
		half := b.HalfQRes(i)
		q := uint64(qi)
		row := p.row(dst, i)
		for k, m := range msg {
			c := row[8*k : 8*k+8]
			for j := range c {
				bit := uint32(m>>j) & 1
				s := uint64(c[j]) + uint64(half&-bit)
				// Reduce s into [0, q): subtract q when s ≥ q, branchlessly.
				// ge = 1 iff s ≥ q (s < 2q here, so one conditional subtract).
				ge := 1 - (s-q)>>63
				c[j] = uint32(s - q*ge)
			}
		}
	}
}
