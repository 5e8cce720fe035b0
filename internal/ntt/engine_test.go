package ntt

import (
	"math/rand"
	"reflect"
	"testing"

	"ringlwe/internal/zq"
)

// engineTestSets mirrors the paper's parameter sets and A1, plus one
// NTT-friendly prime on each side of the AVX2 kernels' 4q ≤ 2¹⁶ gate:
// 16001 runs them, 17921 falls back to the portable vector kernels.
var engineTestSets = []struct {
	name string
	q    uint32
	n    int
}{
	{"P1", 7681, 256},
	{"P2", 12289, 512},
	{"A1", 12289, 256},
	{"q16001", 16001, 64},
	{"q17921", 17921, 256},
}

// namedEngine is a backend under differential test with its label.
type namedEngine struct {
	name string
	Engine
}

// testEngines builds every registered engine over tab, plus the vector
// engine with its AVX2 kernels off as "vector-portable": on an AVX2 host
// "vector" runs the assembly wherever simdAdmits(tab), so both vector
// kernels meet the same oracle.
func testEngines(t testing.TB, tab *Tables) []namedEngine {
	t.Helper()
	var out []namedEngine
	for _, name := range EngineNames() {
		e, err := NewEngine(name, tab)
		if err != nil {
			t.Fatalf("%s q=%d n=%d: %v", name, tab.M.Q, tab.N, err)
		}
		out = append(out, namedEngine{name, e})
	}
	portable, err := newVectorEngine(tab, false)
	if err != nil {
		t.Fatalf("vector-portable q=%d n=%d: %v", tab.M.Q, tab.N, err)
	}
	return append(out, namedEngine{"vector-portable", portable})
}

// engineMul returns a·b in Z_q[x]/(x^n+1) through e's Forward →
// PointwiseMul → Inverse pipeline, leaving a and b untouched.
func engineMul(e Engine, a, b Poly) Poly {
	fa, fb := append(Poly(nil), a...), append(Poly(nil), b...)
	e.Forward(fa)
	e.Forward(fb)
	e.PointwiseMul(fa, fa, fb)
	e.Inverse(fa)
	return fa
}

// constPoly is the polynomial with every coefficient v.
func constPoly(tab *Tables, v uint32) Poly {
	p := make(Poly, tab.N)
	for i := range p {
		p[i] = v
	}
	return p
}

func engineTables(t testing.TB, q uint32, n int) *Tables {
	t.Helper()
	m, err := zq.NewModulus(q)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := NewTables(m, n)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// Every registered engine must be registered, constructible over the paper
// tables, and report its own name.
func TestEngineRegistry(t *testing.T) {
	names := EngineNames()
	for _, want := range []string{"barrett", "vector"} {
		found := false
		for _, n := range names {
			found = found || n == want
		}
		if !found {
			t.Fatalf("engine %q not registered (have %v)", want, names)
		}
	}
	tab := engineTables(t, 7681, 256)
	for _, name := range names {
		e, err := NewEngine(name, tab)
		if err != nil {
			t.Fatalf("NewEngine(%q): %v", name, err)
		}
		if e.Name() != name {
			t.Fatalf("engine %q reports name %q", name, e.Name())
		}
		if e.Tables() != tab {
			t.Fatalf("engine %q does not expose its tables", name)
		}
	}
	if _, err := NewEngine("no-such-engine", tab); err == nil {
		t.Fatal("NewEngine accepted an unknown name")
	}
	if DefaultEngine != "vector" {
		t.Fatalf("DefaultEngine = %q, want the fastest verified backend", DefaultEngine)
	}
}

// Differential cross-check: every engine (and both vector kernels)
// computes bit-identical canonical results to the Barrett reference on
// every Engine operation, over random inputs and the all-zero and
// all-(q−1) edge vectors.
func TestEnginesMatchBarrett(t *testing.T) {
	for _, set := range engineTestSets {
		tab := engineTables(t, set.q, set.n)
		oracle, err := NewEngine("barrett", tab)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(int64(set.q)))
		zero, top := make(Poly, tab.N), constPoly(tab, set.q-1)
		for _, ne := range testEngines(t, tab) {
			name, eng := ne.name, ne.Engine
			for trial := 0; trial < 10; trial++ {
				a, b, c := randPoly(r, tab), randPoly(r, tab), randPoly(r, tab)
				switch trial {
				case 8:
					a, b, c = zero, zero, zero
				case 9:
					a, b, c = top, top, top
				}

				// Forward / Inverse round into each other and match the oracle.
				gotF := append(Poly(nil), a...)
				wantF := append(Poly(nil), a...)
				eng.Forward(gotF)
				oracle.Forward(wantF)
				if !reflect.DeepEqual(gotF, wantF) {
					t.Fatalf("%s q=%d: Forward mismatch", name, set.q)
				}
				gotI := append(Poly(nil), gotF...)
				wantI := append(Poly(nil), wantF...)
				eng.Inverse(gotI)
				oracle.Inverse(wantI)
				if !reflect.DeepEqual(gotI, wantI) || !reflect.DeepEqual(gotI, a) {
					t.Fatalf("%s q=%d: Inverse mismatch", name, set.q)
				}

				// ForwardThree is three Forwards.
				ga, gb, gc := append(Poly(nil), a...), append(Poly(nil), b...), append(Poly(nil), c...)
				eng.ForwardThree(ga, gb, gc)
				for i, pair := range [][2]Poly{{ga, a}, {gb, b}, {gc, c}} {
					want := append(Poly(nil), pair[1]...)
					oracle.Forward(want)
					if !reflect.DeepEqual(pair[0], want) {
						t.Fatalf("%s q=%d: ForwardThree poly %d mismatch", name, set.q, i)
					}
				}

				// Pointwise ops.
				gotP, wantP := make(Poly, tab.N), make(Poly, tab.N)
				eng.PointwiseMul(gotP, a, b)
				oracle.PointwiseMul(wantP, a, b)
				if !reflect.DeepEqual(gotP, wantP) {
					t.Fatalf("%s q=%d: PointwiseMul mismatch", name, set.q)
				}

				// Full multiplication pipeline vs the schoolbook oracle.
				if got := engineMul(eng, a, b); !reflect.DeepEqual(got, tab.Naive(a, b)) {
					t.Fatalf("%s q=%d: Forward→PointwiseMul→Inverse disagrees with Naive", name, set.q)
				}
			}
		}
	}
}

// Add and Sub must reject short inputs like every other Tables operation
// instead of silently truncating.
func TestAddSubLengthPanics(t *testing.T) {
	tab := engineTables(t, 7681, 256)
	full := make(Poly, tab.N)
	short := make(Poly, tab.N-1)
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"Add short a", func() { tab.Add(full, short, full) }},
		{"Add short b", func() { tab.Add(full, full, short) }},
		{"Add short c", func() { tab.Add(short, full, full) }},
		{"Sub short a", func() { tab.Sub(full, short, full) }},
		{"Sub short b", func() { tab.Sub(full, full, short) }},
		{"Sub short c", func() { tab.Sub(short, full, full) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", tc.name)
				}
			}()
			tc.op()
		}()
	}
}

// Engine outputs must be canonical residues — the lazy domain must never
// leak across the Engine interface.
func TestEngineOutputsCanonical(t *testing.T) {
	for _, set := range engineTestSets {
		tab := engineTables(t, set.q, set.n)
		r := rand.New(rand.NewSource(99))
		for _, ne := range testEngines(t, tab) {
			for _, a := range []Poly{randPoly(r, tab), constPoly(tab, set.q-1)} {
				ne.Forward(a)
				for i, v := range a {
					if v >= set.q {
						t.Fatalf("%s q=%d: Forward output[%d] = %d not canonical", ne.name, set.q, i, v)
					}
				}
				ne.Inverse(a)
				for i, v := range a {
					if v >= set.q {
						t.Fatalf("%s q=%d: Inverse output[%d] = %d not canonical", ne.name, set.q, i, v)
					}
				}
			}
		}
	}
}

func benchEngineForward(b *testing.B, eng Engine) {
	r := rand.New(rand.NewSource(1))
	a := randPoly(r, eng.Tables())
	b.ReportAllocs()
	for b.Loop() {
		eng.Forward(a)
	}
}

func benchEngineInverse(b *testing.B, eng Engine) {
	r := rand.New(rand.NewSource(1))
	a := randPoly(r, eng.Tables())
	b.ReportAllocs()
	for b.Loop() {
		eng.Inverse(a)
	}
}

func benchEnginePointwiseMul(b *testing.B, eng Engine) {
	r := rand.New(rand.NewSource(1))
	x, y, c := randPoly(r, eng.Tables()), randPoly(r, eng.Tables()), make(Poly, eng.Tables().N)
	b.ReportAllocs()
	for b.Loop() {
		eng.PointwiseMul(c, x, y)
	}
}

// benchEngines runs fn per test set and engine, the vector engine also as
// "vector-portable" (AVX2 kernels off), so one run shows the kernel ratio.
func benchEngines(b *testing.B, fn func(*testing.B, Engine)) {
	for _, set := range engineTestSets {
		tab := engineTables(b, set.q, set.n)
		for _, ne := range testEngines(b, tab) {
			b.Run(set.name+"/"+ne.name, func(b *testing.B) { fn(b, ne.Engine) })
		}
	}
}

// BenchmarkForward compares the engines on the forward transform (see
// README "Choosing an NTT engine").
func BenchmarkForward(b *testing.B) { benchEngines(b, benchEngineForward) }

// BenchmarkInverse is BenchmarkForward for the inverse transform.
func BenchmarkInverse(b *testing.B) { benchEngines(b, benchEngineInverse) }

// BenchmarkPointwiseMul is BenchmarkForward for the NTT-domain product.
func BenchmarkPointwiseMul(b *testing.B) { benchEngines(b, benchEnginePointwiseMul) }
