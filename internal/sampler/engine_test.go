package sampler

import (
	"bytes"
	"crypto/rand"
	"strings"
	"sync"
	"testing"

	"ringlwe/internal/gauss"
	"ringlwe/internal/rng"
)

var (
	cfgOnce sync.Once
	cfgP1   *Config
)

// testConfig returns a shared Config over the paper's P1 matrix.
func testConfig(t testing.TB) *Config {
	t.Helper()
	cfgOnce.Do(func() {
		cfg, err := NewConfig(gauss.P1Matrix())
		if err != nil {
			panic(err)
		}
		cfgP1 = cfg
	})
	return cfgP1
}

func TestNames(t *testing.T) {
	names := Names()
	for _, want := range []string{"cdt", "knuth-yao", "wide-ky"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("Names() = %v, missing %q", names, want)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Names() not sorted: %v", names)
		}
	}
}

func TestNewUnknown(t *testing.T) {
	_, err := New("no-such-backend", testConfig(t), rng.NewXorshift128(1))
	if err == nil || !strings.Contains(err.Error(), "no-such-backend") {
		t.Fatalf("New(unknown) error = %v, want named error", err)
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register("knuth-yao", nil)
}

// TestEngineName pins Name() to the registry key for every backend.
func TestEngineName(t *testing.T) {
	for _, name := range Names() {
		e, err := New(name, testConfig(t), rng.NewXorshift128(5))
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, e.Name())
		}
	}
}

// TestKnuthYaoBitIdentical pins the reference backend to the scalar
// sampler: same seed, same polynomial, coefficient for coefficient — this
// is the property that keeps the scheme-level known-answer vectors valid.
func TestKnuthYaoBitIdentical(t *testing.T) {
	cfg := testConfig(t)
	const q = 7681
	eng, err := New("knuth-yao", cfg, rng.NewXorshift128(321))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := gauss.NewSampler(cfg.Matrix, rng.NewXorshift128(321),
		gauss.WithPrebuiltLUTs(cfg.LUT1, cfg.LUT2, cfg.MaxFailD))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]uint32, 1024)
	want := make([]uint32, 1024)
	for round := 0; round < 4; round++ {
		eng.SamplePolyInto(got, q)
		ref.SamplePoly(want, q)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d coeff %d: engine %d, scalar %d", round, i, got[i], want[i])
			}
		}
	}
}

// TestTailBound pins the truncation: every sampled residue is within
// Rows−1 of 0 mod q, for every backend and both moduli, including lengths
// that exercise the wide engine's scalar tail.
func TestTailBound(t *testing.T) {
	cfg := testConfig(t)
	maxMag := uint32(cfg.Matrix.Rows - 1)
	for _, q := range []uint32{7681, 12289} {
		for _, name := range Names() {
			e, err := New(name, cfg, rng.NewXorshift128(uint64(q)))
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{256, 7, 8, 13} {
				dst := make([]uint32, n)
				e.SamplePolyInto(dst, q)
				for i, v := range dst {
					if v >= q {
						t.Fatalf("%s q=%d: coeff %d = %d out of range", name, q, i, v)
					}
					if v > maxMag && v < q-maxMag {
						t.Fatalf("%s q=%d: coeff %d = %d beyond the ±%d tail cut", name, q, i, v, maxMag)
					}
				}
			}
		}
	}
}

// TestStatsAccounting pins the counter invariants: Samples advances by
// exactly the polynomial length, and for the LUT-based backends every
// sample is resolved exactly once across the three tiers.
func TestStatsAccounting(t *testing.T) {
	cfg := testConfig(t)
	for _, name := range Names() {
		e, err := New(name, cfg, rng.NewXorshift128(17))
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]uint32, 256)
		const rounds = 40
		for r := 0; r < rounds; r++ {
			e.SamplePolyInto(dst, 7681)
		}
		st := e.Stats()
		if st.Samples != rounds*256 {
			t.Errorf("%s: Samples = %d, want %d", name, st.Samples, rounds*256)
		}
		resolved := st.LUT1Hits + st.LUT2Hits + st.ScanResolved
		switch name {
		case "cdt":
			if resolved != 0 {
				t.Errorf("cdt: resolution counters = %d, want 0", resolved)
			}
		default:
			if resolved != st.Samples {
				t.Errorf("%s: LUT1+LUT2+Scan = %d, want Samples = %d", name, resolved, st.Samples)
			}
			if st.LUT1Hits < st.Samples*9/10 {
				t.Errorf("%s: LUT1Hits = %d of %d, expected ≈97.5%% hit rate", name, st.LUT1Hits, st.Samples)
			}
		}
	}
}

// sourceRows are the sources the engine-wide gates run every backend
// over: the deterministic test source, and the per-workspace AES-CTR
// CryptoSource that ringlwe.New hands the sampler (which wide-ky draws
// from in bulk). Each row returns a fresh source and a twin that yields
// the same word stream.
var sourceRows = []struct {
	name  string
	twins func() (src, twin rng.Source)
}{
	{"Xorshift128", func() (rng.Source, rng.Source) {
		return rng.NewXorshift128(1234), rng.NewXorshift128(1234)
	}},
	{"CryptoSource", cryptoTwins},
}

// cryptoTwins returns two sources from rng.NewCryptoSource keyed alike. A
// CryptoSource keeps the crypto/rand.Reader it was built with and keys
// itself from it on its first draw, so each is built while a fixed key
// stream stands in for the OS reader.
func cryptoTwins() (rng.Source, rng.Source) {
	orig := rand.Reader
	defer func() { rand.Reader = orig }()
	seed := bytes.Repeat([]byte{0x5C, 0x31, 0xE7}, 16)
	rand.Reader = bytes.NewReader(seed)
	src := rng.NewCryptoSource()
	rand.Reader = bytes.NewReader(seed)
	return src, rng.NewCryptoSource()
}

// TestConstructionConsumesNoRandomness pins the Factory contract: building
// an engine must leave the source untouched, because workspace forking
// (and the knuth-yao KAT guarantee) depends on it.
func TestConstructionConsumesNoRandomness(t *testing.T) {
	cfg := testConfig(t)
	for _, row := range sourceRows {
		for _, name := range Names() {
			src, ref := row.twins()
			if _, err := New(name, cfg, src); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 16; i++ {
				if got, want := src.Uint32(), ref.Uint32(); got != want {
					t.Fatalf("%s over %s: construction consumed source state (word %d: %#x vs %#x)",
						name, row.name, i, got, want)
				}
			}
		}
	}
}

// TestSamplerZeroAlloc pins SamplePolyInto at zero allocations per call on
// every backend and source (the CI allocation-regression gate runs -run
// ZeroAlloc). A CryptoSource's first draw builds its cipher; that falls in
// AllocsPerRun's warm-up call.
func TestSamplerZeroAlloc(t *testing.T) {
	cfg := testConfig(t)
	dst := make([]uint32, 256)
	for _, row := range sourceRows {
		for _, name := range Names() {
			src, _ := row.twins()
			e, err := New(name, cfg, src)
			if err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(50, func() {
				e.SamplePolyInto(dst, 7681)
			})
			if allocs != 0 {
				t.Errorf("%s over %s: SamplePolyInto allocates %.1f/op, want 0", name, row.name, allocs)
			}
		}
	}
}
