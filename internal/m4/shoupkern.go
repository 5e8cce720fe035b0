package m4

import "ringlwe/internal/ntt"

// Cycle-charged scalar Shoup-multiplied lazy-reduction NTT (the arithmetic
// internal/ntt's vector engine runs in 8-lane blocks), pricing what that
// kernel would cost on the paper's Cortex-M4F. Like every kernel in this
// package it performs the real computation while charging the machine, so
// results stay bit-exact with ntt's Barrett reference (asserted in tests).
//
// The comparison this file enables: the paper's Algorithm 4 butterfly pays
// ChargeMulRed (7 cycles of Barrett) per twiddle product; the Shoup
// butterfly pays ChargeMulShoup (3 multiplies) plus two 2-cycle lazy folds,
// trading the reduction chain for one extra stored table (the companions,
// 2n halfwords... words) — the same cycles-for-memory trade the paper makes
// with its primitive_root LUT.

// ShoupTables bundles the twiddle companions the charged kernels need; the
// engine in internal/ntt keeps its own copy private, so the model
// recomputes them (construction is not charged — tables are precomputed
// offline, like the paper's flash-resident LUTs).
type ShoupTables struct {
	T           *ntt.Tables
	PsiRevShoup []uint32
}

// NewShoupTables precomputes Shoup companions for every twiddle in t.
func NewShoupTables(t *ntt.Tables) *ShoupTables {
	st := &ShoupTables{
		T:           t,
		PsiRevShoup: make([]uint32, t.N),
	}
	for i := 0; i < t.N; i++ {
		st.PsiRevShoup[i] = t.M.Shoup(t.PsiRev[i])
	}
	return st
}

// chargeShoupButterfly prices one lazy Cooley-Tukey butterfly: two loads,
// the Shoup twiddle product, add and offset-subtract paths with one lazy
// fold each, two stores, pointer arithmetic and loop overhead. The twiddle
// pair (w, w') stays register-resident across the group, so it is charged
// in chargeShoupGroup, not here.
func (m *Machine) chargeShoupButterfly() {
	m.Load(2)
	m.ChargeMulShoup()
	m.ALU(1) // x = u + p
	m.ChargeLazyFold()
	m.ALU(2) // y = u - p + 2q
	m.ChargeLazyFold()
	m.Store(2)
	m.ALU(2) // second pointer computation
	m.Loop()
}

// chargeShoupGroup prices loading one twiddle and its companion plus the
// group's address setup.
func (m *Machine) chargeShoupGroup() {
	m.Load(2) // w and w'
	m.ALU(2)  // j1 = f(i, step); inner loop init
}

// ForwardShoup runs the lazy forward transform with Shoup butterflies,
// charging the machine, then the fused normalization sweep. Results are
// identical to every ntt engine's Forward (canonical out).
func ForwardShoup(m *Machine, st *ShoupTables, a ntt.Poly) {
	m.Call()
	t := st.T
	q := t.M.Q
	twoQ := 2 * q
	step := t.N
	for half := 1; half < t.N; half <<= 1 {
		step >>= 1
		m.chargeStageSetup()
		for i := 0; i < half; i++ {
			w := t.PsiRev[half+i]
			ws := st.PsiRevShoup[half+i]
			m.chargeShoupGroup()
			j1 := 2 * i * step
			for j := j1; j < j1+step; j++ {
				u := a[j]
				v := a[j+step]
				p := v*w - uint32((uint64(v)*uint64(ws))>>32)*q
				x := u + p
				if x >= twoQ {
					x -= twoQ
				}
				y := u - p + twoQ
				if y >= twoQ {
					y -= twoQ
				}
				a[j] = x
				a[j+step] = y
				m.chargeShoupButterfly()
			}
		}
	}
	// Fused normalization sweep: one load, one lazy fold, one store per
	// coefficient.
	for j, v := range a {
		if v >= q {
			a[j] = v - q
		}
		m.Load(1)
		m.ChargeLazyFold()
		m.Store(1)
		m.Loop()
	}
}

// ButterflyCost is the modeled inner-loop price of one forward butterfly
// for one reduction strategy, split into arithmetic and memory/overhead so
// the trade each engine makes is visible.
type ButterflyCost struct {
	Engine string
	// Arith is the modular-arithmetic cycle count (reductions, folds).
	Arith uint64
	// Overhead is memory traffic, pointer math and loop cost per butterfly
	// (packed amortizes it over two butterflies).
	Overhead uint64
	// Total = Arith + Overhead.
	Total uint64
}

// ButterflyCosts reports the modeled per-butterfly operation counts of the
// three registered NTT engines on the Cortex-M4F price list — the numbers
// behind the "Shoup vs Barrett" row of the paper-extension table.
func ButterflyCosts() []ButterflyCost {
	costs := make([]ButterflyCost, 0, 3)

	arith := func(charge func(m *Machine)) uint64 {
		m := New()
		charge(m)
		return m.Cycles
	}
	full := func(charge func(m *Machine)) uint64 {
		m := New()
		charge(m)
		return m.Cycles
	}

	// barrett: the scalar reference — Barrett multiply + add/sub reductions,
	// two halfword accesses each way.
	ba := arith(func(m *Machine) { m.ChargeMulRed(); m.ChargeAddRed(); m.ChargeSubRed() })
	bf := full(func(m *Machine) {
		m.ChargeMulRed()
		m.ChargeAddRed()
		m.ChargeSubRed()
		m.Load(2)
		m.Store(2)
		m.ALU(2)
		m.Loop()
	})
	costs = append(costs, ButterflyCost{Engine: "barrett", Arith: ba, Overhead: bf - ba, Total: bf})

	// packed: same Barrett arithmetic twice, amortized over the pair that
	// shares each word (per-butterfly = half the pair price).
	var pm Machine
	pm.Model = DefaultModel
	pm.chargeButterflyPair()
	pa := 2*arith(func(m *Machine) { m.ChargeMulRed() }) + 2*arith(func(m *Machine) { m.ChargeAddRed() }) + 2*arith(func(m *Machine) { m.ChargeSubRed() })
	costs = append(costs, ButterflyCost{
		Engine:   "packed",
		Arith:    pa / 2,
		Overhead: (pm.Cycles - pa) / 2,
		Total:    pm.Cycles / 2,
	})

	// shoup: lazy arithmetic — one 3-cycle Shoup product and two 2-cycle
	// folds plus the add/offset ALU ops.
	sa := arith(func(m *Machine) {
		m.ChargeMulShoup()
		m.ALU(1)
		m.ChargeLazyFold()
		m.ALU(2)
		m.ChargeLazyFold()
	})
	var sm Machine
	sm.Model = DefaultModel
	sm.chargeShoupButterfly()
	costs = append(costs, ButterflyCost{Engine: "shoup", Arith: sa, Overhead: sm.Cycles - sa, Total: sm.Cycles})
	return costs
}
