// Sampler statistics: reproduces the paper's Figure 2 curve, reports where
// samples are resolved (LUT1 / LUT2 / bit scan — §III-B5), and compares the
// Knuth-Yao sampler with the CDT and rejection baselines on modeled
// Cortex-M4F cycles and wall-clock time.
//
//	go run ./examples/sampler-stats
package main

import (
	"fmt"
	"log"
	"time"

	"ringlwe/internal/gauss"
	"ringlwe/internal/m4"
	"ringlwe/internal/rng"
)

const samples = 500000

func main() {
	mat := gauss.P1Matrix()
	fmt.Printf("discrete Gaussian σ = %.4f (s = 11.31), matrix %d×%d, %d → %d stored words\n\n",
		mat.Sigma, mat.Rows, mat.Cols, mat.TotalWords(), mat.StoredWords())

	fmt.Println("Figure 2 — P(walk terminates within x levels):")
	cdf := mat.TerminationCDF()
	for lvl := 3; lvl <= 13; lvl++ {
		bar := ""
		for i := 0; i < int(cdf[lvl-1]*40); i++ {
			bar += "▒"
		}
		fmt.Printf("  %2d %s %.4f%%\n", lvl, bar, 100*cdf[lvl-1])
	}
	fmt.Printf("  (paper anchors: 97.27%% at level 8, 99.87%% at level 13)\n\n")

	// Where samples actually resolve.
	ky, err := gauss.NewSampler(mat, rng.NewXorshift128(1))
	if err != nil {
		log.Fatal(err)
	}
	t0 := time.Now()
	for i := 0; i < samples; i++ {
		ky.SampleInt()
	}
	kyDur := time.Since(t0)
	fmt.Printf("Knuth-Yao with LUTs over %d samples:\n", samples)
	fmt.Printf("  LUT1 hits     %6.2f%%  (one byte of randomness, one table load)\n",
		100*float64(ky.LUT1Hits)/float64(ky.Samples))
	fmt.Printf("  LUT2 hits     %6.2f%%\n", 100*float64(ky.LUT2Hits)/float64(ky.Samples))
	fmt.Printf("  bit scans     %6.2f%%\n\n", 100*float64(ky.ScanResolved)/float64(ky.Samples))

	// Wall-clock and modeled-cycle comparison across samplers.
	type result struct {
		name   string
		dur    time.Duration
		cycles float64 // modeled cycles per sample (Knuth-Yao variants only)
	}
	var results []result
	results = append(results, result{"knuth-yao + LUT (paper)", kyDur, modelCycles(mat, true, gauss.ScanCLZ)})

	clz, err := gauss.NewSampler(mat, rng.NewXorshift128(2), gauss.WithLUT(false))
	if err != nil {
		log.Fatal(err)
	}
	results = append(results, result{"knuth-yao, clz scan", timeSampler(clz), modelCycles(mat, false, gauss.ScanCLZ)})

	basic, err := gauss.NewSampler(mat, rng.NewXorshift128(3), gauss.WithLUT(false), gauss.WithVariant(gauss.ScanBasic))
	if err != nil {
		log.Fatal(err)
	}
	results = append(results, result{"knuth-yao, basic scan", timeSampler(basic), modelCycles(mat, false, gauss.ScanBasic)})

	cdt := gauss.NewCDTSampler(mat, rng.NewXorshift128(4))
	results = append(results, result{"CDT (fixed-shape search)", timeSampler(cdt), 0})

	rej := gauss.NewRejectionSampler(mat, rng.NewXorshift128(5))
	results = append(results, result{"rejection", timeSampler(rej), 0})

	fmt.Println("sampler performance:")
	for _, r := range results {
		perSample := float64(r.dur.Nanoseconds()) / samples
		cyc := "      —"
		if r.cycles > 0 {
			cyc = fmt.Sprintf("%7.1f", r.cycles)
		}
		fmt.Printf("  %-26s %6.1f ns/sample   %s modeled M4F cycles/sample\n", r.name, perSample, cyc)
	}
	fmt.Println("\npaper: 28.5 cycles/sample with LUTs; prior software samplers were ≥ 7.6× slower")
}

func timeSampler(s gauss.IntSampler) time.Duration {
	t0 := time.Now()
	for i := 0; i < samples; i++ {
		s.SampleInt()
	}
	return time.Since(t0)
}

// modelCycles runs the cycle-charged sampler for 64k samples and returns
// the per-sample average.
func modelCycles(mat *gauss.Matrix, useLUT bool, v gauss.ScanVariant) float64 {
	mach := m4.New()
	s, err := m4.NewSampler(mach, mat, rng.NewXorshift128(9), useLUT, v)
	if err != nil {
		log.Fatal(err)
	}
	poly := make([]uint32, 1<<16)
	s.SamplePoly(poly, 7681)
	return float64(mach.Cycles) / float64(len(poly))
}
