// Sampler backend shoot-out: the same encryption workload run under every
// registered discrete-Gaussian sampler, selected at runtime with
// WithSampler, with the per-backend SamplerStats showing where each
// sample was resolved:
//
//	go run ./examples/sampler-bench
//	go run ./examples/sampler-bench -sampler wide-ky -n 2000
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"ringlwe"
)

func main() {
	only := flag.String("sampler", "", "run a single backend (default: all registered)")
	rounds := flag.Int("n", 1000, "encryptions per backend")
	flag.Parse()

	params := ringlwe.P1()
	backends := ringlwe.Samplers()
	if *only != "" {
		backends = []string{*only}
	}
	msg := make([]byte, params.MessageSize())
	for i := range msg {
		msg[i] = byte(i)
	}

	fmt.Printf("%d encryptions of %d-byte messages at %s (3·n = %d Gaussian samples each)\n\n",
		*rounds, params.MessageSize(), params.Name(), 3*params.N())
	for _, name := range backends {
		// Backend selection is a construction-time option; everything the
		// schemes produce interoperates regardless of the choice.
		scheme := ringlwe.New(params, ringlwe.WithSampler(name))
		pub, priv, err := scheme.GenerateKeys()
		if err != nil {
			log.Fatal(err)
		}
		ws := scheme.NewWorkspace()
		ct := ringlwe.NewCiphertext(params)

		t0 := time.Now()
		for i := 0; i < *rounds; i++ {
			if err := ws.EncryptInto(ct, pub, msg); err != nil {
				log.Fatal(err)
			}
		}
		dur := time.Since(t0)

		if _, err := priv.Decrypt(ct); err != nil {
			log.Fatal(err)
		}
		samples, lut1, lut2, scans := scheme.SamplerStats()
		fmt.Printf("%-10s  %8.1f µs/encrypt  (%.1f ns of encrypt per sample drawn)\n",
			scheme.Sampler(), float64(dur.Microseconds())/float64(*rounds),
			float64(dur.Nanoseconds())/float64(3*params.N()**rounds))
		fmt.Printf("            stats: %d samples", samples)
		if lut1+lut2+scans > 0 {
			fmt.Printf(" — %.2f%% LUT1, %.2f%% LUT2, %.2f%% scan",
				100*float64(lut1)/float64(samples),
				100*float64(lut2)/float64(samples),
				100*float64(scans)/float64(samples))
		} else {
			fmt.Printf(" — resolved by CDT inversion (no table tiers)")
		}
		fmt.Println()
	}
}
