package m4

import (
	"math/rand"
	"reflect"
	"testing"

	"ringlwe/internal/ntt"
)

// The charged Shoup kernel must stay bit-exact with the Barrett reference:
// the model prices the computation, it never changes it.
func TestShoupKernelsBitExact(t *testing.T) {
	tab := p1Tables(t)
	st := NewShoupTables(tab)
	eng, err := ntt.NewEngine("barrett", tab)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 4; trial++ {
		a := randPoly(r, tab)
		got := append(ntt.Poly(nil), a...)
		want := append(ntt.Poly(nil), a...)

		m := New()
		ForwardShoup(m, st, got)
		eng.Forward(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatal("ForwardShoup diverges from the barrett engine")
		}
		if m.Cycles == 0 {
			t.Fatal("ForwardShoup charged nothing")
		}
	}
}

// The modeled Shoup transform must beat the Barrett-reduced halfword
// baseline on the M4 price list — the cycles-for-table trade the refactor
// claims — and the per-butterfly report must reflect the same ordering.
func TestShoupKernelCheaperThanBarrett(t *testing.T) {
	tab := p1Tables(t)
	st := NewShoupTables(tab)
	r := rand.New(rand.NewSource(42))
	a := randPoly(r, tab)

	mShoup := New()
	ForwardShoup(mShoup, st, append(ntt.Poly(nil), a...))
	mBarrett := New()
	ForwardHalfword(mBarrett, tab, append(ntt.Poly(nil), a...))
	if mShoup.Cycles >= mBarrett.Cycles {
		t.Fatalf("modeled Shoup forward (%d cycles) not cheaper than Barrett halfword (%d)",
			mShoup.Cycles, mBarrett.Cycles)
	}

	costs := ButterflyCosts()
	byName := map[string]ButterflyCost{}
	for _, c := range costs {
		byName[c.Engine] = c
		if c.Total != c.Arith+c.Overhead {
			t.Fatalf("%s: Total %d ≠ Arith %d + Overhead %d", c.Engine, c.Total, c.Arith, c.Overhead)
		}
	}
	for _, name := range []string{"barrett", "packed", "shoup"} {
		if _, ok := byName[name]; !ok {
			t.Fatalf("ButterflyCosts missing %s", name)
		}
	}
	if byName["shoup"].Arith >= byName["barrett"].Arith {
		t.Fatalf("shoup butterfly arithmetic (%d) not cheaper than barrett (%d)",
			byName["shoup"].Arith, byName["barrett"].Arith)
	}
}
