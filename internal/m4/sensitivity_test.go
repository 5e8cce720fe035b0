package m4

import (
	"testing"

	"ringlwe/internal/core"
	"ringlwe/internal/ntt"
)

// Cost-model sensitivity: the modeled totals must respond to price changes
// in the direction and rough magnitude theory predicts — this guards
// against charge calls silently disappearing from a kernel.
func TestCostModelSensitivity(t *testing.T) {
	tab, err := ntt.NewTables(core.P1().Mod, 256)
	if err != nil {
		t.Fatal(err)
	}
	a := make(ntt.Poly, tab.N)
	run := func(model CostModel) uint64 {
		m := &Machine{Model: model}
		ForwardPacked(m, tab, tab.Pack(a))
		return m.Cycles
	}

	base := run(DefaultModel)

	// Doubling the memory price must increase the total by the memory
	// share of the transform — between 10% and 40% for the packed kernel.
	expensive := DefaultModel
	expensive.Load *= 2
	expensive.Store *= 2
	mem := run(expensive)
	growth := float64(mem)/float64(base) - 1
	if growth < 0.10 || growth > 0.40 {
		t.Errorf("doubling memory cost grew the NTT by %.1f%%, expected 10-40%%", growth*100)
	}

	// Free memory accesses must shrink it by the same share.
	free := DefaultModel
	free.Load, free.Store = 0, 0
	zero := run(free)
	if zero >= base {
		t.Error("zero-cost memory did not reduce the total")
	}
	if base-zero != mem-base {
		t.Errorf("memory share asymmetric: +%d vs -%d", mem-base, base-zero)
	}

	// The halfword kernel must be more memory-sensitive than the packed
	// one — that is precisely the paper's packing argument.
	runHW := func(model CostModel) uint64 {
		m := &Machine{Model: model}
		ForwardHalfword(m, tab, append(ntt.Poly(nil), a...))
		return m.Cycles
	}
	hwBase := runHW(DefaultModel)
	hwMem := runHW(expensive)
	hwGrowth := float64(hwMem)/float64(hwBase) - 1
	if hwGrowth <= growth {
		t.Errorf("halfword memory sensitivity (%.1f%%) should exceed packed (%.1f%%)",
			hwGrowth*100, growth*100)
	}
}

// Charged kernels must charge: every public kernel leaves a nonzero cycle
// count even on degenerate (all-zero) inputs.
func TestKernelsAlwaysCharge(t *testing.T) {
	tab, err := ntt.NewTables(core.P1().Mod, 256)
	if err != nil {
		t.Fatal(err)
	}
	a := make(ntt.Poly, tab.N)
	kernels := map[string]func(*Machine){
		"ForwardPacked":      func(m *Machine) { ForwardPacked(m, tab, tab.Pack(a)) },
		"InversePacked":      func(m *Machine) { InversePacked(m, tab, tab.Pack(a)) },
		"ForwardThreePacked": func(m *Machine) { ForwardThreePacked(m, tab, tab.Pack(a), tab.Pack(a), tab.Pack(a)) },
		"ForwardHalfword":    func(m *Machine) { ForwardHalfword(m, tab, append(ntt.Poly(nil), a...)) },
		"PointwiseMulPacked": func(m *Machine) {
			c := make(ntt.PackedPoly, tab.N/2)
			PointwiseMulPacked(m, tab, c, tab.Pack(a), tab.Pack(a))
		},
		"AddPacked": func(m *Machine) {
			c := make(ntt.PackedPoly, tab.N/2)
			AddPacked(m, tab, c, tab.Pack(a), tab.Pack(a))
		},
		"SubPacked": func(m *Machine) {
			c := make(ntt.PackedPoly, tab.N/2)
			SubPacked(m, tab, c, tab.Pack(a), tab.Pack(a))
		},
		"NTTMul": func(m *Machine) { NTTMul(m, tab, tab.Pack(a), tab.Pack(a)) },
	}
	for name, k := range kernels {
		m := New()
		k(m)
		if m.Cycles == 0 {
			t.Errorf("%s charged zero cycles", name)
		}
	}
}
