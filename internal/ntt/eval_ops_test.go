package ntt

import (
	"testing"
)

// evalOpsTables builds tables over both paper moduli so the lazy-domain
// engines are exercised at 13- and 14-bit widths.
func evalOpsTables(t *testing.T) []*Tables {
	t.Helper()
	var out []*Tables
	for _, c := range []struct {
		q uint32
		n int
	}{{7681, 256}, {12289, 512}, {12289, 256}} {
		tb, err := NewTables(mustModulus(c.q), c.n)
		if err != nil {
			t.Fatalf("NewTables(q=%d,n=%d): %v", c.q, c.n, err)
		}
		out = append(out, tb)
	}
	return out
}

// TestEvalOpsMatchReference pins every engine's Add/Sub/ScalarMul to the
// plain modular arithmetic they claim to implement, including aliased
// destinations (the accumulator pattern of the evaluation layer).
func TestEvalOpsMatchReference(t *testing.T) {
	for _, tb := range evalOpsTables(t) {
		q := tb.M.Q
		polys := randomPolys(tb, 2, uint64(q)*uint64(tb.N))
		a, b := polys[0], polys[1]
		scalars := []uint32{0, 1, 2, 3, q - 1, q / 2, q, q + 5, 0xFFFFFFFF}
		for _, name := range EngineNames() {
			eng, err := NewEngine(name, tb)
			if err != nil {
				continue // backend rejects this modulus (e.g. vector needs 4q ≤ 2³¹)
			}
			c := make(Poly, tb.N)
			eng.Add(c, a, b)
			for i := range c {
				if want := (a[i] + b[i]) % q; c[i] != want {
					t.Fatalf("%s q=%d: Add[%d] = %d, want %d", name, q, i, c[i], want)
				}
			}
			eng.Sub(c, a, b)
			for i := range c {
				if want := (a[i] + q - b[i]) % q; c[i] != want {
					t.Fatalf("%s q=%d: Sub[%d] = %d, want %d", name, q, i, c[i], want)
				}
			}
			for _, s := range scalars {
				eng.ScalarMul(c, a, s)
				for i := range c {
					if want := uint32(uint64(a[i]) * uint64(s%q) % uint64(q)); c[i] != want {
						t.Fatalf("%s q=%d: ScalarMul(s=%d)[%d] = %d, want %d", name, q, s, i, c[i], want)
					}
				}
			}
			// Aliased accumulator: c = c + b, then c = 3·c, in place.
			copy(c, a)
			eng.Add(c, c, b)
			eng.ScalarMul(c, c, 3)
			for i := range c {
				if want := uint32(uint64((a[i]+b[i])%q) * 3 % uint64(q)); c[i] != want {
					t.Fatalf("%s q=%d: aliased Add+ScalarMul[%d] = %d, want %d", name, q, i, c[i], want)
				}
			}
		}
	}
}
