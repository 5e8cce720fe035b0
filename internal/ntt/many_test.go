package ntt

import (
	"testing"

	"ringlwe/internal/rng"
	"ringlwe/internal/zq"
)

func manyTestTables(t testing.TB) *Tables {
	t.Helper()
	m, err := zq.NewModulus(7681)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := NewTables(m, 256)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func randomPolys(tb *Tables, count int, seed uint64) []Poly {
	src := rng.NewXorshift128(seed)
	polys := make([]Poly, count)
	for i := range polys {
		polys[i] = make(Poly, tb.N)
		for j := range polys[i] {
			polys[i][j] = src.Uint32() % tb.M.Q
		}
	}
	return polys
}

// TestForwardManyMatchesForward pins the Tables' fused batch transform to
// repeated Forward, across batch widths from the empty batch through
// widths past the fused-three case.
func TestForwardManyMatchesForward(t *testing.T) {
	tb := manyTestTables(t)
	for _, count := range []int{0, 1, 2, 3, 4, 5, 8} {
		got := randomPolys(tb, count, uint64(100+count))
		want := randomPolys(tb, count, uint64(100+count))
		tb.ForwardMany(got)
		for i := range want {
			tb.Forward(want[i])
		}
		for i := range want {
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("count=%d poly %d coeff %d: ForwardMany %d, Forward %d",
						count, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

// TestForwardThreeMatchesForwardMany pins every engine's fused three-way
// transform to the Tables' width-3 batch transform, bit for bit.
func TestForwardThreeMatchesForwardMany(t *testing.T) {
	tb := manyTestTables(t)
	for _, name := range EngineNames() {
		eng, err := NewEngine(name, tb)
		if err != nil {
			t.Fatal(err)
		}
		a := randomPolys(tb, 3, 7)
		b := randomPolys(tb, 3, 7)
		eng.ForwardThree(a[0], a[1], a[2])
		tb.ForwardMany(b)
		for i := range a {
			for j := range a[i] {
				if a[i][j] != b[i][j] {
					t.Fatalf("%s poly %d coeff %d: ForwardThree %d, ForwardMany %d",
						name, i, j, a[i][j], b[i][j])
				}
			}
		}
	}
}

// TestForwardThreeZeroAllocShoup pins the hot-path contract: the Shoup
// engine's fused pass builds its batch on the stack, so driving it through
// the Engine interface allocates nothing.
func TestForwardThreeZeroAllocShoup(t *testing.T) {
	tb := manyTestTables(t)
	eng, err := NewEngine("shoup", tb)
	if err != nil {
		t.Fatal(err)
	}
	polys := randomPolys(tb, 3, 9)
	allocs := testing.AllocsPerRun(20, func() {
		eng.ForwardThree(polys[0], polys[1], polys[2])
	})
	if allocs != 0 {
		t.Fatalf("ForwardThree allocates %.1f/op, want 0", allocs)
	}
}

// TestForwardThreeConcurrent shares one engine instance across goroutines
// each transforming its own triple — the workspace concurrency model.
// Engines must be stateless after construction (tables are read-only), so
// this is race-free; the CI race detector holds every backend to it,
// including the vector engine's lane-block kernels.
func TestForwardThreeConcurrent(t *testing.T) {
	tb := manyTestTables(t)
	const workers = 8
	for _, name := range EngineNames() {
		eng, err := NewEngine(name, tb)
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]Poly, workers)
		got := make([][]Poly, workers)
		for w := 0; w < workers; w++ {
			want[w] = randomPolys(tb, 3, uint64(1000+w))
			got[w] = randomPolys(tb, 3, uint64(1000+w))
			for i := range want[w] {
				eng.Forward(want[w][i])
			}
		}
		done := make(chan int, workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				eng.ForwardThree(got[w][0], got[w][1], got[w][2])
				done <- w
			}(w)
		}
		for i := 0; i < workers; i++ {
			<-done
		}
		for w := 0; w < workers; w++ {
			for i := range want[w] {
				for j := range want[w][i] {
					if got[w][i][j] != want[w][i][j] {
						t.Fatalf("%s worker %d poly %d coeff %d: concurrent %d, sequential %d",
							name, w, i, j, got[w][i][j], want[w][i][j])
					}
				}
			}
		}
	}
}

// TestForwardThreeLengthPanics pins the length validation on every engine.
func TestForwardThreeLengthPanics(t *testing.T) {
	tb := manyTestTables(t)
	for _, name := range EngineNames() {
		eng, err := NewEngine(name, tb)
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: ForwardThree with a short polynomial did not panic", name)
				}
			}()
			eng.ForwardThree(make(Poly, tb.N), make(Poly, tb.N), make(Poly, tb.N-1))
		}()
	}
}
