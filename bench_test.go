package ringlwe

// Benchmark harness: one benchmark (or benchmark family) per table and
// figure of the paper's evaluation section. Wall-clock numbers (ns/op) give
// the shape on the host; the m4cyc metric reports the Cortex-M4F cycle
// model for direct comparison against the paper's columns (recorded in
// EXPERIMENTS.md). Run with:
//
//	go test -bench=. -benchmem
//
// Paper reference values appear as the "paper" metric so benchstat-style
// diffing has both sides.

import (
	"math"
	"testing"

	"ringlwe/internal/core"
	"ringlwe/internal/ecc"
	"ringlwe/internal/gauss"
	"ringlwe/internal/m4"
	"ringlwe/internal/ntt"
	"ringlwe/internal/rng"
)

// reportModel attaches the modeled cycles and the paper's measured cycles
// to a benchmark. Call it after b.ResetTimer, which discards the metrics
// reported before it.
func reportModel(b *testing.B, modeled uint64, paper float64) {
	b.ReportMetric(float64(modeled), "m4cyc")
	if paper > 0 {
		b.ReportMetric(paper, "paper-cyc")
	}
}

// defaultEngine returns the NTT engine a scheme over p runs by default;
// the Table I and ablation benchmarks time it beside the M4 model cycles.
func defaultEngine(b *testing.B, p *core.Params) ntt.Engine {
	eng, err := ntt.NewEngine(ntt.ResolveEngine("", p.Tables), p.Tables)
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// ---------------------------------------------------------------- Table I

func benchNTTForward(b *testing.B, p *core.Params, paper float64) {
	a := make(ntt.Poly, p.N)
	for i := range a {
		a[i] = uint32(i*7) % p.Q
	}
	eng := defaultEngine(b, p)
	mach := m4.New()
	m4.ForwardPacked(mach, p.Tables, p.Tables.Pack(a))
	b.ResetTimer()
	reportModel(b, mach.Cycles, paper)
	for i := 0; i < b.N; i++ {
		eng.Forward(a)
	}
}

func BenchmarkTableI_NTT_P1(b *testing.B) { benchNTTForward(b, core.P1(), 31583) }
func BenchmarkTableI_NTT_P2(b *testing.B) { benchNTTForward(b, core.P2(), 73406) }

func benchNTTParallel(b *testing.B, p *core.Params, paper float64) {
	a := make(ntt.Poly, p.N)
	for i := range a {
		a[i] = uint32(i*11) % p.Q
	}
	eng := defaultEngine(b, p)
	x, y, z := append(ntt.Poly(nil), a...), append(ntt.Poly(nil), a...), a
	mach := m4.New()
	m4.ForwardThreePacked(mach, p.Tables, p.Tables.Pack(a), p.Tables.Pack(a), p.Tables.Pack(a))
	b.ResetTimer()
	reportModel(b, mach.Cycles, paper)
	for i := 0; i < b.N; i++ {
		eng.ForwardThree(x, y, z)
	}
}

func BenchmarkTableI_ParallelNTT_P1(b *testing.B) { benchNTTParallel(b, core.P1(), 84031) }
func BenchmarkTableI_ParallelNTT_P2(b *testing.B) { benchNTTParallel(b, core.P2(), 188150) }

func benchNTTInverse(b *testing.B, p *core.Params, paper float64) {
	a := make(ntt.Poly, p.N)
	for i := range a {
		a[i] = uint32(i*13) % p.Q
	}
	eng := defaultEngine(b, p)
	mach := m4.New()
	m4.InversePacked(mach, p.Tables, p.Tables.Pack(a))
	b.ResetTimer()
	reportModel(b, mach.Cycles, paper)
	for i := 0; i < b.N; i++ {
		eng.Inverse(a)
	}
}

func BenchmarkTableI_InverseNTT_P1(b *testing.B) { benchNTTInverse(b, core.P1(), 39126) }
func BenchmarkTableI_InverseNTT_P2(b *testing.B) { benchNTTInverse(b, core.P2(), 90583) }

func benchKYPoly(b *testing.B, p *core.Params, paper float64) {
	s, err := p.NewSampler(rng.NewXorshift128(1))
	if err != nil {
		b.Fatal(err)
	}
	poly := make([]uint32, p.N)

	mach := m4.New()
	ms, err := m4.NewSampler(mach, p.Matrix, rng.NewXorshift128(1), true, gauss.ScanCLZ)
	if err != nil {
		b.Fatal(err)
	}
	ms.SamplePoly(poly, p.Q)

	b.ResetTimer()
	reportModel(b, mach.Cycles, paper)
	b.ReportMetric(float64(mach.Cycles)/float64(p.N), "m4cyc/sample")
	for i := 0; i < b.N; i++ {
		s.SamplePoly(poly, p.Q)
	}
}

func BenchmarkTableI_KnuthYaoPoly_P1(b *testing.B) { benchKYPoly(b, core.P1(), 7294) }
func BenchmarkTableI_KnuthYaoPoly_P2(b *testing.B) { benchKYPoly(b, core.P2(), 14604) }

func benchNTTMul(b *testing.B, p *core.Params, paper float64) {
	a := make(ntt.Poly, p.N)
	c := make(ntt.Poly, p.N)
	for i := range a {
		a[i] = uint32(i*17) % p.Q
		c[i] = uint32(i*19+5) % p.Q
	}
	eng := defaultEngine(b, p)
	x, y := make(ntt.Poly, p.N), make(ntt.Poly, p.N)
	mach := m4.New()
	m4.NTTMul(mach, p.Tables, p.Tables.Pack(a), p.Tables.Pack(c))
	b.ResetTimer()
	reportModel(b, mach.Cycles, paper)
	for i := 0; i < b.N; i++ {
		copy(x, a)
		copy(y, c)
		eng.Forward(x)
		eng.Forward(y)
		eng.PointwiseMul(x, x, y)
		eng.Inverse(x)
	}
}

func BenchmarkTableI_NTTMul_P1(b *testing.B) { benchNTTMul(b, core.P1(), 108147) }
func BenchmarkTableI_NTTMul_P2(b *testing.B) { benchNTTMul(b, core.P2(), 248310) }

// --------------------------------------------------------------- Table II

func benchKeyGen(b *testing.B, params *Params, paper float64) {
	s := NewDeterministic(params, 1)
	mach := m4.New()
	ms, err := m4.NewScheme(mach, innerParams(params), rng.NewXorshift128(1))
	if err != nil {
		b.Fatal(err)
	}
	ms.KeyGen()
	b.ResetTimer()
	reportModel(b, mach.Cycles, paper)
	for i := 0; i < b.N; i++ {
		if _, _, err := s.GenerateKeys(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableII_KeyGen_P1(b *testing.B) { benchKeyGen(b, P1(), 116772) }
func BenchmarkTableII_KeyGen_P2(b *testing.B) { benchKeyGen(b, P2(), 263622) }

func benchEncrypt(b *testing.B, params *Params, paper float64) {
	s := NewDeterministic(params, 2)
	pk, _, err := s.GenerateKeys()
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, params.MessageSize())

	mach := m4.New()
	ms, err := m4.NewScheme(mach, innerParams(params), rng.NewXorshift128(2))
	if err != nil {
		b.Fatal(err)
	}
	mpk, msk := ms.KeyGen()
	_ = msk
	mach.Reset()
	ms.Encrypt(mpk, msg)

	b.ResetTimer()
	reportModel(b, mach.Cycles, paper)
	for i := 0; i < b.N; i++ {
		if _, err := s.Encrypt(pk, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableII_Encrypt_P1(b *testing.B) { benchEncrypt(b, P1(), 121166) }
func BenchmarkTableII_Encrypt_P2(b *testing.B) { benchEncrypt(b, P2(), 261939) }

func benchDecrypt(b *testing.B, params *Params, paper float64) {
	s := NewDeterministic(params, 3)
	pk, sk, err := s.GenerateKeys()
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, params.MessageSize())
	ct, err := s.Encrypt(pk, msg)
	if err != nil {
		b.Fatal(err)
	}

	mach := m4.New()
	ms, err := m4.NewScheme(mach, innerParams(params), rng.NewXorshift128(3))
	if err != nil {
		b.Fatal(err)
	}
	mpk, mskM := ms.KeyGen()
	mct := ms.Encrypt(mpk, msg)
	mach.Reset()
	ms.Decrypt(mskM, mct)

	b.ResetTimer()
	reportModel(b, mach.Cycles, paper)
	for i := 0; i < b.N; i++ {
		if _, err := sk.Decrypt(ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableII_Decrypt_P1(b *testing.B) { benchDecrypt(b, P1(), 43324) }
func BenchmarkTableII_Decrypt_P2(b *testing.B) { benchDecrypt(b, P2(), 96520) }

// innerParams recovers the internal parameter object for the cycle model.
func innerParams(p *Params) *core.Params {
	switch p.Name() {
	case "P1":
		return core.P1()
	case "P2":
		return core.P2()
	default:
		panic("bench: unknown params")
	}
}

// -------------------------------------------------------------- Table III
// Building-block ablations: the de-optimized baselines that make the
// paper's comparison factors reproducible rather than quoted.

func BenchmarkTableIII_NTTHalfword_P1(b *testing.B) {
	p := core.P1()
	a := make(ntt.Poly, p.N)
	for i := range a {
		a[i] = uint32(i*3) % p.Q
	}
	mach := m4.New()
	m4.ForwardHalfword(mach, p.Tables, append(ntt.Poly(nil), a...))
	b.ResetTimer()
	reportModel(b, mach.Cycles, 0)
	for i := 0; i < b.N; i++ {
		p.Tables.Forward(a)
	}
}

func BenchmarkTableIII_NTTAlg3Literal_P1(b *testing.B) {
	p := core.P1()
	a := make(ntt.Poly, p.N)
	for i := range a {
		a[i] = uint32(i*3) % p.Q
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Tables.ForwardAlg3(a)
	}
}

func BenchmarkTableIII_NTTSchoolbook_P1(b *testing.B) {
	p := core.P1()
	a := make(ntt.Poly, p.N)
	c := make(ntt.Poly, p.N)
	for i := range a {
		a[i] = uint32(i*3) % p.Q
		c[i] = uint32(i*5+1) % p.Q
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Tables.Naive(a, c)
	}
}

func benchSamplerPerSample(b *testing.B, mk func() gauss.IntSampler, modelCyc float64, paper float64) {
	s := mk()
	b.ResetTimer()
	if modelCyc > 0 {
		b.ReportMetric(modelCyc, "m4cyc/sample")
	}
	if paper > 0 {
		b.ReportMetric(paper, "paper-cyc")
	}
	for i := 0; i < b.N; i++ {
		s.SampleInt()
	}
}

func modelSamplerCycles(useLUT bool, v gauss.ScanVariant) float64 {
	mach := m4.New()
	s, err := m4.NewSampler(mach, gauss.P1Matrix(), rng.NewXorshift128(7), useLUT, v)
	if err != nil {
		panic(err)
	}
	poly := make([]uint32, 1<<14)
	s.SamplePoly(poly, 7681)
	return float64(mach.Cycles) / float64(len(poly))
}

func BenchmarkTableIII_SamplerKYLUT(b *testing.B) {
	benchSamplerPerSample(b, func() gauss.IntSampler {
		s, err := gauss.NewSampler(gauss.P1Matrix(), rng.NewXorshift128(1))
		if err != nil {
			b.Fatal(err)
		}
		return s
	}, modelSamplerCycles(true, gauss.ScanCLZ), 28.5)
}

func BenchmarkTableIII_SamplerKYCLZ(b *testing.B) {
	benchSamplerPerSample(b, func() gauss.IntSampler {
		s, err := gauss.NewSampler(gauss.P1Matrix(), rng.NewXorshift128(2), gauss.WithLUT(false))
		if err != nil {
			b.Fatal(err)
		}
		return s
	}, modelSamplerCycles(false, gauss.ScanCLZ), 0)
}

func BenchmarkTableIII_SamplerKYBasic(b *testing.B) {
	benchSamplerPerSample(b, func() gauss.IntSampler {
		s, err := gauss.NewSampler(gauss.P1Matrix(), rng.NewXorshift128(3),
			gauss.WithLUT(false), gauss.WithVariant(gauss.ScanBasic))
		if err != nil {
			b.Fatal(err)
		}
		return s
	}, modelSamplerCycles(false, gauss.ScanBasic), 0)
}

func BenchmarkTableIII_SamplerCDT(b *testing.B) {
	benchSamplerPerSample(b, func() gauss.IntSampler {
		return gauss.NewCDTSampler(gauss.P1Matrix(), rng.NewXorshift128(4))
	}, 0, 0)
}

func BenchmarkTableIII_SamplerRejection(b *testing.B) {
	benchSamplerPerSample(b, func() gauss.IntSampler {
		return gauss.NewRejectionSampler(gauss.P1Matrix(), rng.NewXorshift128(5))
	}, 0, 0)
}

// --------------------------------------------------------------- Table IV
// Scheme-level comparison against the ECIES-233 baseline.

func BenchmarkTableIV_RingLWEEncrypt_P1(b *testing.B) {
	s := NewDeterministic(P1(), 4)
	pk, _, err := s.GenerateKeys()
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, P1().MessageSize())
	b.ResetTimer()
	b.ReportMetric(121166, "paper-cyc")
	for i := 0; i < b.N; i++ {
		if _, err := s.Encrypt(pk, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIV_ECIESEncrypt233(b *testing.B) {
	curve := ecc.K233()
	base := curve.GeneratePoint(rng.NewXorshift128(1))
	kp, err := ecc.GenerateKeyPair(curve, base.X, rng.NewXorshift128(2))
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 32)
	src := rng.NewXorshift128(3)
	b.ResetTimer()
	b.ReportMetric(5523280, "paper-cyc")
	for i := 0; i < b.N; i++ {
		if _, err := ecc.Encrypt(kp, msg, src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIV_ECCPointMul233(b *testing.B) {
	curve := ecc.K233()
	p := curve.GeneratePoint(rng.NewXorshift128(4))
	pool := rng.NewBitPool(rng.NewXorshift128(5))
	k := ecc.RandomScalar(pool)
	b.ResetTimer()
	b.ReportMetric(2761640, "paper-cyc")
	for i := 0; i < b.N; i++ {
		if _, ok := curve.MulX(&k, &p.X); !ok {
			b.Fatal("ladder failed")
		}
	}
}

// -------------------------------------------------------------- Figures

// Figure 1's underlying computation: probability-matrix construction and
// packing (the 55×109 matrix with zero-word elision).
func BenchmarkFigure1_MatrixConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := gauss.NewMatrixFromS(1131, 100, 55, 109)
		if err != nil {
			b.Fatal(err)
		}
		if m.StoredWords() != 180 {
			b.Fatal("unexpected storage")
		}
	}
}

// Figure 2's underlying computation: the DDG termination CDF.
func BenchmarkFigure2_TerminationCDF(b *testing.B) {
	m := gauss.P1Matrix()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cdf := m.TerminationCDF()
		if math.Abs(cdf[7]-0.9727) > 0.001 {
			b.Fatal("anchor drifted")
		}
	}
}

// ------------------------------------------------------------- Ablations
// Design-choice ablations called out in DESIGN.md.

// Packing ablation: the same transform with and without two-coefficient
// packing (paper §III-D's 50% memory-access claim, as modeled cycles).
func BenchmarkAblation_PackedVsHalfword(b *testing.B) {
	p := core.P1()
	a := make(ntt.Poly, p.N)
	for i := range a {
		a[i] = uint32(i) % p.Q
	}
	mp := m4.New()
	m4.ForwardPacked(mp, p.Tables, p.Tables.Pack(a))
	mh := m4.New()
	m4.ForwardHalfword(mh, p.Tables, append(ntt.Poly(nil), a...))
	eng := defaultEngine(b, p)
	b.ResetTimer()
	b.ReportMetric(float64(mp.Cycles), "packed-m4cyc")
	b.ReportMetric(float64(mh.Cycles), "halfword-m4cyc")
	b.ReportMetric(100*(1-float64(mp.Cycles)/float64(mh.Cycles)), "saving-%")
	for i := 0; i < b.N; i++ {
		eng.Forward(a)
	}
}

// Parallel-3 ablation (paper: 8.3% saving over three separate NTTs).
func BenchmarkAblation_ParallelVsSeparate(b *testing.B) {
	p := core.P1()
	a := make(ntt.Poly, p.N)
	m3 := m4.New()
	m4.ForwardThreePacked(m3, p.Tables, p.Tables.Pack(a), p.Tables.Pack(a), p.Tables.Pack(a))
	m1 := m4.New()
	m4.ForwardPacked(m1, p.Tables, p.Tables.Pack(a))
	eng := defaultEngine(b, p)
	x, y, z := make(ntt.Poly, p.N), make(ntt.Poly, p.N), a
	b.ResetTimer()
	b.ReportMetric(100*(1-float64(m3.Cycles)/float64(3*m1.Cycles)), "saving-%")
	b.ReportMetric(8.3, "paper-saving-%")
	for i := 0; i < b.N; i++ {
		eng.ForwardThree(x, y, z)
	}
}

// TRNG model sensitivity: background generation (paper's view) vs a fully
// synchronous worst case. The loop times one modelled P1 polynomial
// sampling under the synchronous TRNG.
func BenchmarkAblation_TRNGModel(b *testing.B) {
	p := core.P1()
	sampler := func(conservative bool) (*m4.Machine, *m4.Sampler) {
		mach := m4.New()
		mach.ConservativeTRNG = conservative
		s, err := m4.NewSampler(mach, p.Matrix, rng.NewXorshift128(11), true, gauss.ScanCLZ)
		if err != nil {
			b.Fatal(err)
		}
		return mach, s
	}
	perSample := func(conservative bool) float64 {
		mach, s := sampler(conservative)
		poly := make([]uint32, 1<<14)
		s.SamplePoly(poly, p.Q)
		return float64(mach.Cycles) / float64(len(poly))
	}
	background, synchronous := perSample(false), perSample(true)
	_, s := sampler(true)
	poly := make([]uint32, p.N)
	b.ResetTimer()
	b.ReportMetric(background, "background-cyc/sample")
	b.ReportMetric(synchronous, "synchronous-cyc/sample")
	for i := 0; i < b.N; i++ {
		s.SamplePoly(poly, p.Q)
	}
}

// End-to-end scheme ablation: the optimized encryption pipeline against
// the halfword/unfused one (same ciphertexts, different bills). The loop
// times one modelled halfword encryption.
func BenchmarkAblation_SchemeHalfword(b *testing.B) {
	params := core.P1()
	mOpt := m4.New()
	opt, err := m4.NewScheme(mOpt, params, rng.NewXorshift128(21))
	if err != nil {
		b.Fatal(err)
	}
	pk, _ := opt.KeyGen()
	msg := make([]byte, params.MessageBytes())
	mOpt.Reset()
	opt.Encrypt(pk, msg)
	optEnc := mOpt.Cycles

	mHW := m4.New()
	hw, err := m4.NewScheme(mHW, params, rng.NewXorshift128(22))
	if err != nil {
		b.Fatal(err)
	}
	pkH, _ := hw.KeyGen()
	mHW.Reset()
	hw.EncryptHalfword(pkH, msg)
	hwEnc := mHW.Cycles

	b.ResetTimer()
	b.ReportMetric(float64(optEnc), "optimized-m4cyc")
	b.ReportMetric(float64(hwEnc), "halfword-m4cyc")
	b.ReportMetric(100*(1-float64(optEnc)/float64(hwEnc)), "saving-%")
	for i := 0; i < b.N; i++ {
		hw.EncryptHalfword(pkH, msg)
	}
}

// KEM layer overhead over raw encryption.
func BenchmarkKEM_Encapsulate_P1(b *testing.B) {
	s := NewDeterministic(P1(), 13)
	pk, _, err := s.GenerateKeys()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Encapsulate(pk); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKEM_Decapsulate_P1(b *testing.B) {
	s := NewDeterministic(P1(), 14)
	pk, sk, err := s.GenerateKeys()
	if err != nil {
		b.Fatal(err)
	}
	blob, _, err := s.Encapsulate(pk)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Decapsulate(sk, blob); err != nil {
		b.Fatal(err) // fixed seed: must succeed
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Decapsulate(sk, blob); err != nil {
			b.Fatal(err)
		}
	}
}
