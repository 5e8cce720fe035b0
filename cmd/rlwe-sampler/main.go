// Command rlwe-sampler explores the discrete Gaussian samplers: it prints
// an ASCII histogram, the empirical moments, a χ² goodness-of-fit check
// against the exact distribution, and the Figure 2 termination series.
//
// Usage:
//
//	rlwe-sampler -params P1 -n 200000 -sampler ky-lut
//	rlwe-sampler -sampler cdt -n 500000
//	rlwe-sampler -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ringlwe/internal/gauss"
	"ringlwe/internal/rng"
)

var samplerNames = []string{"ky-lut", "ky-clz", "ky-hamming", "ky-basic", "cdt", "rejection"}

func main() {
	paramsName := flag.String("params", "P1", "parameter set: P1 or P2")
	n := flag.Int("n", 200000, "number of samples")
	samplerName := flag.String("sampler", "ky-lut", "sampler: "+strings.Join(samplerNames, ", "))
	seed := flag.Uint64("seed", 1, "deterministic seed (0 = crypto/rand)")
	list := flag.Bool("list", false, "list samplers and exit")
	flag.Parse()

	if *list {
		for _, s := range samplerNames {
			fmt.Println(s)
		}
		return
	}

	var mat *gauss.Matrix
	switch strings.ToUpper(*paramsName) {
	case "P1":
		mat = gauss.P1Matrix()
	case "P2":
		mat = gauss.P2Matrix()
	default:
		fmt.Fprintf(os.Stderr, "rlwe-sampler: unknown params %q\n", *paramsName)
		os.Exit(2)
	}

	var src rng.Source
	if *seed == 0 {
		src = rng.NewCryptoSource()
	} else {
		src = rng.NewXorshift128(*seed)
	}

	sampler, err := buildSampler(*samplerName, mat, src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rlwe-sampler:", err)
		os.Exit(2)
	}

	fmt.Printf("sampler=%s σ=%.4f rows=%d cols=%d samples=%d\n\n",
		*samplerName, mat.Sigma, mat.Rows, mat.Cols, *n)

	hist := gauss.Histogram(sampler, *n)
	printHistogram(hist, *n, mat)

	// Moments from a fresh stream so the histogram does not bias them.
	sampler2, _ := buildSampler(*samplerName, mat, rng.NewXorshift128(*seed+1))
	mean, std := gauss.Moments(sampler2, *n)
	fmt.Printf("\nmean   = %+.4f   (expect ≈ 0)\n", mean)
	fmt.Printf("stddev = %.4f    (expect ≈ %.4f)\n", std, mat.Sigma)

	stat, df := gauss.ChiSquare(mat, hist, *n, 8)
	crit := gauss.ChiSquareCritical(df, 0.001)
	verdict := "PASS"
	if stat > crit {
		verdict = "FAIL"
	}
	fmt.Printf("χ²     = %.1f with %d df (0.999 critical %.1f) → %s\n", stat, df, crit, verdict)

	if ky, ok := sampler.(*gauss.Sampler); ok && ky.Samples > 0 {
		fmt.Printf("\nresolution: LUT1 %.2f%%  LUT2 %.2f%%  bit-scan %.2f%%\n",
			100*float64(ky.LUT1Hits)/float64(ky.Samples),
			100*float64(ky.LUT2Hits)/float64(ky.Samples),
			100*float64(ky.ScanResolved)/float64(ky.Samples))
	}

	fmt.Println("\nDDG termination CDF (paper Fig. 2):")
	cdf := mat.TerminationCDF()
	for lvl := 3; lvl <= 13; lvl++ {
		fmt.Printf("  level %2d: %8.4f%%\n", lvl, 100*cdf[lvl-1])
	}
}

func buildSampler(name string, mat *gauss.Matrix, src rng.Source) (gauss.IntSampler, error) {
	switch name {
	case "ky-lut":
		return gauss.NewSampler(mat, src)
	case "ky-clz":
		return gauss.NewSampler(mat, src, gauss.WithLUT(false))
	case "ky-hamming":
		return gauss.NewSampler(mat, src, gauss.WithLUT(false), gauss.WithVariant(gauss.ScanHamming))
	case "ky-basic":
		return gauss.NewSampler(mat, src, gauss.WithLUT(false), gauss.WithVariant(gauss.ScanBasic))
	case "cdt":
		return gauss.NewCDTSampler(mat, src), nil
	case "rejection":
		return gauss.NewRejectionSampler(mat, src), nil
	default:
		return nil, fmt.Errorf("unknown sampler %q (use -list)", name)
	}
}

func printHistogram(hist map[int32]uint64, total int, mat *gauss.Matrix) {
	const barWidth = 60
	span := int32(3 * mat.Sigma * 1.2)
	var peak uint64
	for v := -span; v <= span; v++ {
		if hist[v] > peak {
			peak = hist[v]
		}
	}
	if peak == 0 {
		return
	}
	for v := -span; v <= span; v++ {
		c := hist[v]
		bar := strings.Repeat("█", int(uint64(barWidth)*c/peak))
		fmt.Printf("%+4d %7d %s\n", v, c, bar)
	}
	inRange := uint64(0)
	for v, c := range hist {
		if v >= -span && v <= span {
			inRange += c
		}
	}
	fmt.Printf("(%.2f%% of mass within ±%d shown)\n", 100*float64(inRange)/float64(total), span)
}
