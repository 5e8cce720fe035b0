package ntt

// PackedPoly stores a dimension-n polynomial in n/2 32-bit words: coefficient
// 2i lives in the low halfword of word i and coefficient 2i+1 in the high
// halfword. Valid only for moduli with BitLen ≤ 16. It is the paper's
// Algorithm 4 layout (§III-C/D): every load or store moves two coefficients
// and the butterfly loop unrolls by two. The packed kernels and their
// Cortex-M4F cycle costs are in internal/m4; their reference is
// Pack(Forward(a)).
type PackedPoly []uint32

// Pack converts a natural-order polynomial into packed form.
func (t *Tables) Pack(a Poly) PackedPoly {
	if len(a) != t.N {
		panic("ntt: Pack length mismatch")
	}
	if t.M.BitLen() > 16 {
		panic("ntt: modulus too wide for 16-bit packing")
	}
	p := make(PackedPoly, t.N/2)
	for i := range p {
		p[i] = a[2*i] | a[2*i+1]<<16
	}
	return p
}

// Unpack converts a packed polynomial back to one coefficient per word.
func (t *Tables) Unpack(p PackedPoly) Poly {
	if len(p) != t.N/2 {
		panic("ntt: Unpack length mismatch")
	}
	a := make(Poly, t.N)
	for i, w := range p {
		a[2*i] = w & 0xFFFF
		a[2*i+1] = w >> 16
	}
	return a
}
