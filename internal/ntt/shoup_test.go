package ntt

import (
	"math/rand"
	"testing"

	"ringlwe/internal/zq"
)

// The lazy-domain bound proof at the transform level: driving the Shoup
// engine stage by stage through both paper parameter sets, every stored
// coefficient stays strictly below 2q after every forward and every inverse
// stage (the stage outputs ARE the only stored intermediates — butterfly
// temporaries never persist), and the folded n⁻¹ scaling lands everything
// canonical. Runs several random polynomials plus the adversarial all-(q−1)
// worst case.
func TestShoupLazyDomainBounds(t *testing.T) {
	for _, set := range engineTestSets {
		tab := engineTables(t, set.q, set.n)
		engIface, err := NewEngine("shoup", tab)
		if err != nil {
			t.Fatal(err)
		}
		eng := engIface.(*ShoupEngine)
		twoQ := 2 * set.q
		r := rand.New(rand.NewSource(int64(set.n)))

		inputs := []Poly{}
		for trial := 0; trial < 4; trial++ {
			inputs = append(inputs, randPoly(r, tab))
		}
		worst := make(Poly, tab.N)
		for i := range worst {
			worst[i] = set.q - 1
		}
		inputs = append(inputs, worst, make(Poly, tab.N)) // extremes: max and zero

		for _, a := range inputs {
			lazy := append(Poly(nil), a...)

			// Forward: assert < 2q after every stage.
			step := set.n
			stage := 0
			for half := 1; half < set.n; half <<= 1 {
				step >>= 1
				eng.ForwardStage(lazy, half, step)
				stage++
				for i, v := range lazy {
					if v >= twoQ {
						t.Fatalf("q=%d: forward stage %d coeff %d = %d ≥ 2q", set.q, stage, i, v)
					}
				}
			}
			// The lazy spectrum must agree with the reference mod q.
			want := append(Poly(nil), a...)
			tab.Forward(want)
			for i, v := range lazy {
				if v%set.q != want[i] {
					t.Fatalf("q=%d: lazy forward coeff %d ≡ %d, want %d", set.q, i, v%set.q, want[i])
				}
			}

			// Inverse: keep riding the lazy spectrum; assert < 2q per stage.
			step = 1
			stage = 0
			for half := set.n >> 1; half >= 1; half >>= 1 {
				eng.InverseStage(lazy, half, step)
				step <<= 1
				stage++
				for i, v := range lazy {
					if v >= twoQ {
						t.Fatalf("q=%d: inverse stage %d coeff %d = %d ≥ 2q", set.q, stage, i, v)
					}
				}
			}
			eng.ScaleNInv(lazy)
			for i, v := range lazy {
				if v >= set.q {
					t.Fatalf("q=%d: ScaleNInv output %d = %d not canonical", set.q, i, v)
				}
				if v != a[i] {
					t.Fatalf("q=%d: lazy round trip coeff %d = %d, want %d", set.q, i, v, a[i])
				}
			}
		}
	}
}

// Normalize must be exactly the compare-and-subtract fold it replaced,
// checked exhaustively over the lazy domain [0, 2q).
func TestShoupNormalize(t *testing.T) {
	for _, q := range []uint32{7681, 12289} {
		tab := engineTables(t, q, 256)
		eng, err := NewShoupEngine(tab)
		if err != nil {
			t.Fatal(err)
		}
		a := make(Poly, 2*q)
		for i := range a {
			a[i] = uint32(i)
		}
		eng.(*ShoupEngine).Normalize(a)
		for x, got := range a {
			want := uint32(x)
			if want >= q {
				want -= q
			}
			if got != want {
				t.Fatalf("q=%d: Normalize(%d) = %d, want %d", q, x, got, want)
			}
		}
	}
}

// The Shoup engine is the hot path: every Engine operation on preallocated
// buffers must be allocation free.
func TestShoupZeroAlloc(t *testing.T) {
	for _, set := range engineTestSets {
		tab := engineTables(t, set.q, set.n)
		eng, err := NewEngine("shoup", tab)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(7))
		a, b := randPoly(r, tab), randPoly(r, tab)
		c := make(Poly, tab.N)
		x, y, z := randPoly(r, tab), randPoly(r, tab), randPoly(r, tab)

		cases := []struct {
			name string
			op   func()
		}{
			{"Forward", func() { eng.Forward(a) }},
			{"Inverse", func() { eng.Inverse(a) }},
			{"ForwardThree", func() { eng.ForwardThree(x, y, z) }},
			{"PointwiseMul", func() { eng.PointwiseMul(c, a, b) }},
			{"Add", func() { eng.Add(c, a, b) }},
			{"Sub", func() { eng.Sub(c, a, b) }},
			{"ScalarMul", func() { eng.ScalarMul(c, a, 3) }},
		}
		for _, tc := range cases {
			if allocs := testing.AllocsPerRun(32, tc.op); allocs != 0 {
				t.Errorf("q=%d: shoup %s allocates %.1f/op, want 0", set.q, tc.name, allocs)
			}
		}
	}
}

// Engine construction rejects moduli without lazy headroom.
func TestShoupEngineRejectsHugeModulus(t *testing.T) {
	// A 31-bit NTT-friendly prime: q ≡ 1 (mod 2n) for n = 256 with q ≥ 2^30.
	const bigQ = 1073754113 // 2^30 + 13·2^10 + 1, prime, ≡ 1 mod 512
	m, err := zq.NewModulus(bigQ)
	if err != nil {
		t.Skip("constant not prime in this configuration:", err)
	}
	tab, err := NewTables(m, 256)
	if err != nil {
		t.Skip("no roots for test modulus:", err)
	}
	if _, err := NewShoupEngine(tab); err == nil {
		t.Fatal("NewShoupEngine accepted q ≥ 2^30")
	}
}
