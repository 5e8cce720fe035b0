package ntt

// Into-variants of the transform pipeline: every operation here writes into
// caller-owned memory and allocates nothing, so a preallocated workspace can
// drive the whole encrypt/decrypt path with zero steady-state garbage. The
// in-place Forward/Inverse/ForwardThree and the pointwise ops already write
// into their arguments; these cover the remaining out-of-place cases.

// prepInto validates both lengths and copies src into dst (skipped when
// they alias), readying dst for an in-place transform.
func prepInto(t *Tables, dst, src Poly, what string) {
	if len(dst) != t.N || len(src) != t.N {
		panic("ntt: " + what + " length mismatch")
	}
	if &dst[0] != &src[0] {
		copy(dst, src)
	}
}

// ForwardInto sets dst = NTT(src) without modifying src. dst and src may
// alias (then it degenerates to the in-place Forward).
func (t *Tables) ForwardInto(dst, src Poly) {
	prepInto(t, dst, src, "ForwardInto")
	t.Forward(dst)
}

// InverseInto sets dst = INTT(src) without modifying src. dst and src may
// alias.
func (t *Tables) InverseInto(dst, src Poly) {
	prepInto(t, dst, src, "InverseInto")
	t.Inverse(dst)
}

// MulInto sets dst = a·b in Z_q[x]/(x^n+1) using scratch as the second
// transform buffer. Neither input is modified; dst may alias a or b but not
// scratch, and scratch must not alias any other argument.
func (t *Tables) MulInto(dst, a, b, scratch Poly) {
	if len(dst) != t.N || len(a) != t.N || len(b) != t.N || len(scratch) != t.N {
		panic("ntt: MulInto length mismatch")
	}
	copy(scratch, b)
	t.ForwardInto(dst, a)
	t.Forward(scratch)
	t.PointwiseMul(dst, dst, scratch)
	t.Inverse(dst)
}
