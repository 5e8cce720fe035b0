package m4

import "ringlwe/internal/ntt"

// Cycle-charged NTT kernels. Each transliterates the corresponding engine
// in internal/ntt (same loop structure, same results — asserted in tests)
// while charging the Cortex-M4F price of every step, following the paper's
// Algorithm 4 conventions: per-stage twiddle bases come from the
// `primitive_root` lookup table and the running twiddle w is updated
// multiplicatively once per butterfly group (w ← w·ω_m), exactly as in the
// listing.

const halfMask = 0xFFFF

// chargeStageSetup prices loading (ω_m, √ω_m) from the stage LUT plus the
// loop bookkeeping of one stage.
func (m *Machine) chargeStageSetup() {
	m.Load(2)
	m.ALU(3)
}

// chargeGroup prices one butterfly group: the w ← w·ω_m update and the
// start-address computation.
func (m *Machine) chargeGroup() {
	m.ChargeMulRed() // running twiddle update
	m.ALU(2)         // j1 = f(i, step); inner loop init
}

// chargeButterflyPair prices one main-loop iteration of Algorithm 4: two
// packed loads (four coefficients), two butterflies sharing one twiddle,
// two packed stores, the second pointer computation and the loop overhead.
func (m *Machine) chargeButterflyPair() {
	m.Load(2)
	m.ChargeUnpack()
	m.ChargeUnpack()
	m.ChargeMulRed()
	m.ChargeMulRed()
	m.ChargeAddRed()
	m.ChargeAddRed()
	m.ChargeSubRed()
	m.ChargeSubRed()
	m.ChargePack()
	m.ChargePack()
	m.Store(2)
	m.ALU(2)
	m.Loop()
}

// chargePeeledButterfly prices one iteration of the peeled stride-1 stage
// (Algorithm 4 lines 18-25): one word in, one butterfly, one word out, with
// the per-iteration twiddle update.
func (m *Machine) chargePeeledButterfly() {
	m.ChargeMulRed() // w ← w·ω_m every iteration in the final stage
	m.Load(1)
	m.ChargeUnpack()
	m.ChargeMulRed()
	m.ChargeAddRed()
	m.ChargeSubRed()
	m.ChargePack()
	m.Store(1)
	m.Loop()
}

// ForwardPacked runs the packed negative-wrapped forward NTT (paper
// Algorithm 4) on p, charging the machine. Results are identical to
// Pack(Forward(a)) for the unpacked a.
func ForwardPacked(m *Machine, t *ntt.Tables, p ntt.PackedPoly) {
	m.Call()
	mod := t.M
	step := t.N
	for half := 1; half < t.N/2; half <<= 1 {
		step >>= 1
		ws := step / 2
		m.chargeStageSetup()
		for i := 0; i < half; i++ {
			j1 := i * step
			s := t.PsiRev[half+i]
			m.chargeGroup()
			for j := j1; j < j1+ws; j++ {
				wl := p[j]
				wh := p[j+ws]
				u1, u2 := wl&halfMask, wl>>16
				v1 := mod.Mul(wh&halfMask, s)
				v2 := mod.Mul(wh>>16, s)
				p[j] = mod.Add(u1, v1) | mod.Add(u2, v2)<<16
				p[j+ws] = mod.Sub(u1, v1) | mod.Sub(u2, v2)<<16
				m.chargeButterflyPair()
			}
		}
	}
	halfN := t.N / 2
	m.chargeStageSetup()
	for i := 0; i < halfN; i++ {
		s := t.PsiRev[halfN+i]
		w := p[i]
		u := w & halfMask
		v := mod.Mul(w>>16, s)
		p[i] = mod.Add(u, v) | mod.Sub(u, v)<<16
		m.chargePeeledButterfly()
	}
}

// InversePacked runs the packed inverse transform with the final n⁻¹
// scaling, charging the machine. Results are identical to
// Pack(Inverse(a)) for the unpacked a.
func InversePacked(m *Machine, t *ntt.Tables, p ntt.PackedPoly) {
	m.Call()
	mod := t.M
	halfN := t.N / 2
	// Peeled stride-1 stage (first on the inverse path).
	m.chargeStageSetup()
	for i := 0; i < halfN; i++ {
		s := t.PsiInvRev[halfN+i]
		w := p[i]
		u := w & halfMask
		v := w >> 16
		p[i] = mod.Add(u, v) | mod.Mul(mod.Sub(u, v), s)<<16
		m.chargePeeledButterfly()
	}
	step := 2
	for half := t.N >> 2; half >= 1; half >>= 1 {
		ws := step / 2
		j1 := 0
		m.chargeStageSetup()
		for i := 0; i < half; i++ {
			s := t.PsiInvRev[half+i]
			m.chargeGroup()
			for j := j1; j < j1+ws; j++ {
				wl := p[j]
				wh := p[j+ws]
				u1, u2 := wl&halfMask, wl>>16
				v1, v2 := wh&halfMask, wh>>16
				p[j] = mod.Add(u1, v1) | mod.Add(u2, v2)<<16
				p[j+ws] = mod.Mul(mod.Sub(u1, v1), s) | mod.Mul(mod.Sub(u2, v2), s)<<16
				m.chargeButterflyPair()
			}
			j1 += 2 * ws
		}
		step <<= 1
	}
	// Final scaling pass by n⁻¹, two coefficients per word.
	m.ALU(2)
	for i := range p {
		w := p[i]
		p[i] = mod.Mul(w&halfMask, t.NInv) | mod.Mul(w>>16, t.NInv)<<16
		m.Load(1)
		m.ChargeUnpack()
		m.ChargeMulRed()
		m.ChargeMulRed()
		m.ChargePack()
		m.Store(1)
		m.Loop()
	}
}

// ForwardThreePacked runs the paper's parallel-3 NTT (§III-D): the three
// polynomials advance through the same butterfly schedule inside one inner
// loop, so stage setup, group bookkeeping (the w update) and loop overhead
// are charged once instead of three times. The three coefficient sets are
// modeled as consecutive memory regions addressed from one base pointer;
// the two derived addresses cost one ALU op each.
func ForwardThreePacked(m *Machine, t *ntt.Tables, a, b, c ntt.PackedPoly) {
	m.Call()
	mod := t.M
	step := t.N
	polys := [3]ntt.PackedPoly{a, b, c}
	for half := 1; half < t.N/2; half <<= 1 {
		step >>= 1
		ws := step / 2
		m.chargeStageSetup()
		for i := 0; i < half; i++ {
			j1 := i * step
			s := t.PsiRev[half+i]
			m.chargeGroup()
			for j := j1; j < j1+ws; j++ {
				for pi, p := range polys {
					wl := p[j]
					wh := p[j+ws]
					u1, u2 := wl&halfMask, wl>>16
					v1 := mod.Mul(wh&halfMask, s)
					v2 := mod.Mul(wh>>16, s)
					p[j] = mod.Add(u1, v1) | mod.Add(u2, v2)<<16
					p[j+ws] = mod.Sub(u1, v1) | mod.Sub(u2, v2)<<16

					m.Load(2)
					m.ChargeUnpack()
					m.ChargeUnpack()
					m.ChargeMulRed()
					m.ChargeMulRed()
					m.ChargeAddRed()
					m.ChargeAddRed()
					m.ChargeSubRed()
					m.ChargeSubRed()
					m.ChargePack()
					m.ChargePack()
					m.Store(2)
					if pi > 0 {
						m.ALU(1) // derived base address (+n/2 offset)
					}
				}
				m.ALU(2) // shared pointer computation
				m.Loop() // shared loop overhead
			}
		}
	}
	halfN := t.N / 2
	m.chargeStageSetup()
	for i := 0; i < halfN; i++ {
		s := t.PsiRev[halfN+i]
		m.ChargeMulRed() // shared per-iteration twiddle update
		for pi, p := range polys {
			w := p[i]
			u := w & halfMask
			v := mod.Mul(w>>16, s)
			p[i] = mod.Add(u, v) | mod.Sub(u, v)<<16

			m.Load(1)
			m.ChargeUnpack()
			m.ChargeMulRed()
			m.ChargeAddRed()
			m.ChargeSubRed()
			m.ChargePack()
			m.Store(1)
			if pi > 0 {
				m.ALU(1)
			}
		}
		m.Loop()
	}
}

// ForwardHalfword is the de-optimized baseline: the same butterfly schedule
// with one 16-bit coefficient per memory access (paper Algorithm 3 storage,
// §III-C) — twice the memory operations and loop iterations of the packed
// kernel. Used by the ablation benches; results identical to
// ntt.Tables.Forward.
func ForwardHalfword(m *Machine, t *ntt.Tables, a ntt.Poly) {
	m.Call()
	mod := t.M
	step := t.N
	for half := 1; half < t.N; half <<= 1 {
		step >>= 1
		m.chargeStageSetup()
		for i := 0; i < half; i++ {
			j1 := 2 * i * step
			s := t.PsiRev[half+i]
			m.chargeGroup()
			for j := j1; j < j1+step; j++ {
				u := a[j]
				v := mod.Mul(a[j+step], s)
				a[j] = mod.Add(u, v)
				a[j+step] = mod.Sub(u, v)

				m.Load(2) // two halfword loads
				m.ChargeMulRed()
				m.ChargeAddRed()
				m.ChargeSubRed()
				m.Store(2) // two halfword stores
				m.ALU(2)   // two pointer computations
				m.Loop()
			}
		}
	}
}

// PointwiseMulPacked charges and computes c = a ∘ b on packed operands.
func PointwiseMulPacked(m *Machine, t *ntt.Tables, c, a, b ntt.PackedPoly) {
	m.Call()
	mod := t.M
	for i := range c {
		wa, wb := a[i], b[i]
		c[i] = mod.Mul(wa&halfMask, wb&halfMask) | mod.Mul(wa>>16, wb>>16)<<16

		m.Load(2)
		m.ChargeUnpack()
		m.ChargeUnpack()
		m.ChargeMulRed()
		m.ChargeMulRed()
		m.ChargePack()
		m.Store(1)
		m.Loop()
	}
}

// AddPacked charges and computes c = a + b on packed operands.
func AddPacked(m *Machine, t *ntt.Tables, c, a, b ntt.PackedPoly) {
	m.Call()
	mod := t.M
	for i := range c {
		wa, wb := a[i], b[i]
		c[i] = mod.Add(wa&halfMask, wb&halfMask) | mod.Add(wa>>16, wb>>16)<<16

		m.Load(2)
		m.ChargeUnpack()
		m.ChargeUnpack()
		m.ChargeAddRed()
		m.ChargeAddRed()
		m.ChargePack()
		m.Store(1)
		m.Loop()
	}
}

// SubPacked charges and computes c = a - b on packed operands.
func SubPacked(m *Machine, t *ntt.Tables, c, a, b ntt.PackedPoly) {
	m.Call()
	mod := t.M
	for i := range c {
		wa, wb := a[i], b[i]
		c[i] = mod.Sub(wa&halfMask, wb&halfMask) | mod.Sub(wa>>16, wb>>16)<<16

		m.Load(2)
		m.ChargeUnpack()
		m.ChargeUnpack()
		m.ChargeSubRed()
		m.ChargeSubRed()
		m.ChargePack()
		m.Store(1)
		m.Loop()
	}
}

// NTTMul charges a full polynomial multiplication — two forward packed
// transforms, a pointwise product and one inverse transform — the paper's
// "NTT multiplication" row in Table I.
func NTTMul(m *Machine, t *ntt.Tables, a, b ntt.PackedPoly) ntt.PackedPoly {
	ForwardPacked(m, t, a)
	ForwardPacked(m, t, b)
	c := make(ntt.PackedPoly, len(a))
	PointwiseMulPacked(m, t, c, a, b)
	InversePacked(m, t, c)
	return c
}
