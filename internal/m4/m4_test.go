package m4

import (
	"bytes"
	"math/rand"
	"testing"

	"ringlwe/internal/core"
	"ringlwe/internal/gauss"
	"ringlwe/internal/ntt"
	"ringlwe/internal/rng"
)

func p1Tables(t testing.TB) *ntt.Tables {
	t.Helper()
	tab, err := ntt.NewTables(core.P1().Mod, 256)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// forwardPacked is the reference for the packed forward kernels:
// Pack(Forward(a)), leaving a untouched.
func forwardPacked(tab *ntt.Tables, a ntt.Poly) ntt.PackedPoly {
	ref := append(ntt.Poly(nil), a...)
	tab.Forward(ref)
	return tab.Pack(ref)
}

func randPoly(rngv *rand.Rand, tab *ntt.Tables) ntt.Poly {
	p := make(ntt.Poly, tab.N)
	for i := range p {
		p[i] = rngv.Uint32() % tab.M.Q
	}
	return p
}

func TestMachineCharges(t *testing.T) {
	m := New()
	m.ALU(3)
	if m.Cycles != 3 {
		t.Fatalf("ALU(3) → %d", m.Cycles)
	}
	m.Load(2)
	if m.Cycles != 7 {
		t.Fatalf("Load(2) → %d", m.Cycles)
	}
	m.Branch(true)
	m.Branch(false)
	if m.Cycles != 7+3+1 {
		t.Fatalf("branches → %d", m.Cycles)
	}
	m.Reset()
	if m.Cycles != 0 || m.TRNGFetches != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestTRNGLatencyHiding(t *testing.T) {
	// Default model: every fetch costs the 12-cycle polling wait.
	m := New()
	m.TRNGFetch()
	first := m.Cycles
	m.TRNGFetch()
	if m.Cycles-first != rng.MinWaitCycles {
		t.Fatalf("background fetch cost %d, want %d", m.Cycles-first, rng.MinWaitCycles)
	}

	// Conservative model: back-to-back fetches pay the full generation
	// interval, but ≥140 cycles of useful work hides it.
	c := New()
	c.ConservativeTRNG = true
	c.TRNGFetch()
	first = c.Cycles
	c.TRNGFetch()
	if c.Cycles-first != rng.CPUCyclesPerWord {
		t.Fatalf("idle fetch cost %d, want %d", c.Cycles-first, rng.CPUCyclesPerWord)
	}
	c.ALU(200)
	before := c.Cycles
	c.TRNGFetch()
	if c.Cycles-before != rng.MinWaitCycles {
		t.Fatalf("hidden fetch cost %d, want %d", c.Cycles-before, rng.MinWaitCycles)
	}
}

// The charged bit pool must deliver exactly the rng.BitPool stream.
func TestBitPoolStreamEquivalence(t *testing.T) {
	ref := rng.NewBitPool(rng.NewXorshift128(42))
	got := NewBitPool(New(), rng.NewXorshift128(42))
	for i := 0; i < 50000; i++ {
		if ref.Bit() != got.Bit() {
			t.Fatalf("bit %d differs", i)
		}
	}
	ref2 := rng.NewBitPool(rng.NewXorshift128(43))
	got2 := NewBitPool(New(), rng.NewXorshift128(43))
	for i := 0; i < 20000; i++ {
		n := uint(i % 14)
		if ref2.Bits(n) != got2.Bits(n) {
			t.Fatalf("Bits(%d) call %d differs", n, i)
		}
	}
}

func TestForwardPackedEquivalence(t *testing.T) {
	tab := p1Tables(t)
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		a := randPoly(r, tab)
		want := forwardPacked(tab, a)
		got := tab.Pack(a)
		m := New()
		ForwardPacked(m, tab, got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: modeled NTT differs at %d", trial, i)
			}
		}
		if m.Cycles == 0 {
			t.Fatal("no cycles charged")
		}
	}
}

func TestInversePackedEquivalence(t *testing.T) {
	tab := p1Tables(t)
	r := rand.New(rand.NewSource(2))
	a := randPoly(r, tab)
	ref := append(ntt.Poly(nil), a...)
	tab.Inverse(ref)
	want := tab.Pack(ref)
	got := tab.Pack(a)
	InversePacked(New(), tab, got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("modeled INTT differs at %d", i)
		}
	}
}

func TestForwardThreePackedEquivalence(t *testing.T) {
	tab := p1Tables(t)
	r := rand.New(rand.NewSource(3))
	a, b, c := randPoly(r, tab), randPoly(r, tab), randPoly(r, tab)
	wa, wb, wc := forwardPacked(tab, a), forwardPacked(tab, b), forwardPacked(tab, c)
	ga, gb, gc := tab.Pack(a), tab.Pack(b), tab.Pack(c)
	ForwardThreePacked(New(), tab, ga, gb, gc)
	for i := range wa {
		if ga[i] != wa[i] || gb[i] != wb[i] || gc[i] != wc[i] {
			t.Fatalf("modeled parallel NTT differs at %d", i)
		}
	}
}

func TestForwardHalfwordEquivalence(t *testing.T) {
	tab := p1Tables(t)
	r := rand.New(rand.NewSource(4))
	a := randPoly(r, tab)
	want := append(ntt.Poly(nil), a...)
	tab.Forward(want)
	ForwardHalfword(New(), tab, a)
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("modeled halfword NTT differs at %d", i)
		}
	}
}

// The paper's headline claims, as model invariants:
//   - the packed transform is substantially cheaper than the halfword one
//   - the fused triple transform beats three separate ones by 5-15%
//     (the paper measures 8.3%)
//   - the inverse transform costs more than the forward one
func TestModelReproducesPaperRatios(t *testing.T) {
	tab := p1Tables(t)
	r := rand.New(rand.NewSource(5))
	a := randPoly(r, tab)

	packed := New()
	ForwardPacked(packed, tab, tab.Pack(a))

	halfword := New()
	ForwardHalfword(halfword, tab, append(ntt.Poly(nil), a...))

	if float64(packed.Cycles) > 0.90*float64(halfword.Cycles) {
		t.Errorf("packed NTT (%d) not sufficiently cheaper than halfword (%d)",
			packed.Cycles, halfword.Cycles)
	}

	inv := New()
	InversePacked(inv, tab, tab.Pack(a))
	if inv.Cycles <= packed.Cycles {
		t.Errorf("INTT (%d) should cost more than NTT (%d)", inv.Cycles, packed.Cycles)
	}

	three := New()
	ForwardThreePacked(three, tab, tab.Pack(a), tab.Pack(a), tab.Pack(a))
	separate := 3 * packed.Cycles
	saving := 1 - float64(three.Cycles)/float64(separate)
	if saving < 0.04 || saving > 0.20 {
		t.Errorf("parallel-3 saving %.1f%%, want 5-15%% (paper: 8.3%%)", 100*saving)
	}
}

// Modeled Table I cycle counts must land in the paper's ballpark: same
// order of magnitude and the right P2/P1 growth (paper: ≥ 123%).
func TestModelAbsoluteCycleBands(t *testing.T) {
	p1 := core.P1()
	p2 := core.P2()
	r := rand.New(rand.NewSource(6))

	cyc := func(p *core.Params) uint64 {
		a := make(ntt.Poly, p.N)
		for i := range a {
			a[i] = r.Uint32() % p.Q
		}
		m := New()
		ForwardPacked(m, p.Tables, p.Tables.Pack(a))
		return m.Cycles
	}
	c1, c2 := cyc(p1), cyc(p2)
	// Paper: 31 583 (P1), 73 406 (P2). Accept ±40%.
	if c1 < 19000 || c1 > 45000 {
		t.Errorf("P1 NTT modeled at %d cycles, paper 31583", c1)
	}
	if c2 < 44000 || c2 > 103000 {
		t.Errorf("P2 NTT modeled at %d cycles, paper 73406", c2)
	}
	growth := float64(c2)/float64(c1) - 1
	if growth < 1.0 || growth > 1.6 {
		t.Errorf("P2/P1 growth %.0f%%, paper ≥ 123%%", growth*100)
	}
}

// The charged sampler must emit exactly the gauss.Sampler stream.
func TestSamplerStreamEquivalence(t *testing.T) {
	mat := gauss.P1Matrix()
	for _, cfg := range []struct {
		name    string
		useLUT  bool
		variant gauss.ScanVariant
	}{
		{"lut+clz", true, gauss.ScanCLZ},
		{"scan-clz", false, gauss.ScanCLZ},
		{"scan-basic", false, gauss.ScanBasic},
		{"scan-hamming", false, gauss.ScanHamming},
	} {
		opts := []gauss.Option{gauss.WithVariant(cfg.variant), gauss.WithLUT(cfg.useLUT)}
		ref, err := gauss.NewSampler(mat, rng.NewXorshift128(77), opts...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewSampler(New(), mat, rng.NewXorshift128(77), cfg.useLUT, cfg.variant)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30000; i++ {
			a := ref.SampleMod(7681)
			b := got.SampleMod(7681)
			if a != b {
				t.Fatalf("%s: sample %d differs: %d vs %d", cfg.name, i, a, b)
			}
		}
	}
}

// Paper anchor: Knuth-Yao sampling averages 28.5 cycles per sample with
// both parameter sets (§IV-A); Table I prices one polynomial (n samples) at
// 7 294 (P1) / 14 604 (P2). Accept ±30%.
func TestModelSamplingCost(t *testing.T) {
	for _, tc := range []struct {
		mat   *gauss.Matrix
		n     int
		q     uint32
		paper uint64
	}{
		{gauss.P1Matrix(), 256, 7681, 7294},
		{gauss.P2Matrix(), 512, 12289, 14604},
	} {
		m := New()
		s, err := NewSampler(m, tc.mat, rng.NewXorshift128(9), true, gauss.ScanCLZ)
		if err != nil {
			t.Fatal(err)
		}
		poly := make([]uint32, tc.n)
		s.SamplePoly(poly, tc.q)
		perSample := float64(m.Cycles) / float64(tc.n)
		if perSample < 20 || perSample > 37 {
			t.Errorf("n=%d: %.1f cycles/sample, paper 28.5", tc.n, perSample)
		}
		lo, hi := uint64(float64(tc.paper)*0.7), uint64(float64(tc.paper)*1.3)
		if m.Cycles < lo || m.Cycles > hi {
			t.Errorf("n=%d: polynomial sampling %d cycles, paper %d", tc.n, m.Cycles, tc.paper)
		}
	}
}

// The LUT path must be far cheaper than pure bit scanning, and the basic
// scan far costlier than the clz scan (the paper's two sampler claims).
func TestModelSamplerAblation(t *testing.T) {
	mat := gauss.P1Matrix()
	cost := func(useLUT bool, v gauss.ScanVariant) uint64 {
		m := New()
		s, err := NewSampler(m, mat, rng.NewXorshift128(10), useLUT, v)
		if err != nil {
			t.Fatal(err)
		}
		poly := make([]uint32, 4096)
		s.SamplePoly(poly, 7681)
		return m.Cycles
	}
	lut := cost(true, gauss.ScanCLZ)
	clz := cost(false, gauss.ScanCLZ)
	ham := cost(false, gauss.ScanHamming)
	basic := cost(false, gauss.ScanBasic)
	if !(lut < clz && clz < basic) {
		t.Errorf("expected lut < clz < basic, got %d, %d, %d", lut, clz, basic)
	}
	if ham >= basic {
		t.Errorf("hamming skip (%d) should beat basic scanning (%d)", ham, basic)
	}
	if float64(basic)/float64(lut) < 3 {
		t.Errorf("LUT speedup over basic scanning only %.1fx", float64(basic)/float64(lut))
	}
}

// Charged scheme operations must produce bit-identical results to core.
func TestSchemeEquivalenceWithCore(t *testing.T) {
	for _, params := range []*core.Params{core.P1(), core.P2()} {
		refScheme, err := core.New(params, rng.NewXorshift128(31))
		if err != nil {
			t.Fatal(err)
		}
		refPk, refSk, err := refScheme.GenerateKeys()
		if err != nil {
			t.Fatal(err)
		}

		m := New()
		mScheme, err := NewScheme(m, params, rng.NewXorshift128(31))
		if err != nil {
			t.Fatal(err)
		}
		gotPk, gotSk := mScheme.KeyGen()
		for i := 0; i < params.N; i++ {
			if gotPk.A[i] != refPk.A[i] || gotPk.P[i] != refPk.P[i] || gotSk.R2[i] != refSk.R2[i] {
				t.Fatalf("%s: modeled keygen differs at %d", params.Name, i)
			}
		}

		msg := make([]byte, params.MessageBytes())
		for i := range msg {
			msg[i] = byte(i*37 + 1)
		}
		refCt, err := refScheme.Encrypt(refPk, msg)
		if err != nil {
			t.Fatal(err)
		}
		gotCt := mScheme.Encrypt(gotPk, msg)
		for i := 0; i < params.N; i++ {
			if gotCt.C1[i] != refCt.C1[i] || gotCt.C2[i] != refCt.C2[i] {
				t.Fatalf("%s: modeled encryption differs at %d", params.Name, i)
			}
		}

		refMsg, err := refSk.Decrypt(refCt)
		if err != nil {
			t.Fatal(err)
		}
		gotMsg := mScheme.Decrypt(gotSk, gotCt)
		if !bytes.Equal(refMsg, gotMsg) {
			t.Fatalf("%s: modeled decryption differs", params.Name)
		}
	}
}

// Table II bands: modeled scheme cycles within ±40% of the paper, and the
// paper's structural claims (decrypt ≈ 35% cheaper than encrypt; P2 ≈
// 2.2× P1).
func TestModelSchemeCycleBands(t *testing.T) {
	type row struct {
		params                   *core.Params
		keygen, encrypt, decrypt uint64 // paper values
	}
	rows := []row{
		{core.P1(), 116772, 121166, 43324},
		{core.P2(), 263622, 261939, 96520},
	}
	got := make(map[string][3]uint64)
	for _, rw := range rows {
		m := New()
		s, err := NewScheme(m, rw.params, rng.NewXorshift128(8))
		if err != nil {
			t.Fatal(err)
		}
		pk, sk := s.KeyGen()
		kg := m.Cycles

		m.Reset()
		msg := make([]byte, rw.params.MessageBytes())
		ct := s.Encrypt(pk, msg)
		enc := m.Cycles

		m.Reset()
		s.Decrypt(sk, ct)
		dec := m.Cycles

		got[rw.params.Name] = [3]uint64{kg, enc, dec}
		check := func(name string, gotC, paper uint64) {
			lo, hi := uint64(float64(paper)*0.6), uint64(float64(paper)*1.4)
			if gotC < lo || gotC > hi {
				t.Errorf("%s %s: modeled %d cycles, paper %d", rw.params.Name, name, gotC, paper)
			}
		}
		check("keygen", kg, rw.keygen)
		check("encrypt", enc, rw.encrypt)
		check("decrypt", dec, rw.decrypt)

		if float64(dec) > 0.55*float64(enc) {
			t.Errorf("%s: decrypt (%d) should be well under encrypt (%d) — paper: 35%% fewer",
				rw.params.Name, dec, enc)
		}
	}
	// Growth between parameter sets (paper: 126%/118%/117%).
	p1, p2 := got["P1"], got["P2"]
	for i, name := range []string{"keygen", "encrypt", "decrypt"} {
		growth := float64(p2[i])/float64(p1[i]) - 1
		if growth < 0.9 || growth > 1.6 {
			t.Errorf("%s P2/P1 growth %.0f%%, paper ≈ 117-126%%", name, growth*100)
		}
	}
}

func TestFootprint(t *testing.T) {
	f1 := MeasureFootprint(core.P1())
	f2 := MeasureFootprint(core.P2())
	// P1: pmat 180 words (720 B) + LUT1 256 + LUT2 224 + stage roots.
	if f1.FlashTables < 1200 || f1.FlashTables > 1400 {
		t.Errorf("P1 flash tables %d B, want ≈ 1264", f1.FlashTables)
	}
	// Paper Table II RAM: P1 keygen 1596, enc 3128, dec 2100 — our poly
	// accounting must land within 35%.
	checks := []struct {
		name       string
		got, paper int
	}{
		{"P1 keygen RAM", f1.RAMKeyGen, 1596},
		{"P1 enc RAM", f1.RAMEnc, 3128},
		{"P1 dec RAM", f1.RAMDec, 2100},
		{"P2 keygen RAM", f2.RAMKeyGen, 3132},
		{"P2 enc RAM", f2.RAMEnc, 6200},
		{"P2 dec RAM", f2.RAMDec, 4148},
	}
	for _, c := range checks {
		lo, hi := int(float64(c.paper)*0.65), int(float64(c.paper)*1.35)
		if c.got < lo || c.got > hi {
			t.Errorf("%s: %d B, paper %d B", c.name, c.got, c.paper)
		}
	}
	// RAM roughly doubles from P1 to P2 (paper: ≈ +100%).
	if r := float64(f2.RAMEnc) / float64(f1.RAMEnc); r < 1.9 || r > 2.1 {
		t.Errorf("enc RAM growth ×%.2f, want ≈ ×2", r)
	}
}

func TestUniformPolyEquivalence(t *testing.T) {
	params := core.P1()
	ref, err := core.New(params, rng.NewXorshift128(55))
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewScheme(New(), params, rng.NewXorshift128(55))
	if err != nil {
		t.Fatal(err)
	}
	// Note: core.New seeds sampler first, uniform second — same as m4.
	// GenerateKeys draws ã as its first uniform polynomial.
	pk, _, err := ref.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	a := pk.A
	b := got.UniformPoly()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("uniform poly differs at %d", i)
		}
	}
}
