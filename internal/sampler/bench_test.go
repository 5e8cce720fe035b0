package sampler

import (
	"testing"

	"ringlwe/internal/rng"
)

// BenchmarkSamplePolyInto measures every backend filling one P1-sized
// error polynomial, reporting ns/coeff alongside the standard metrics
// (BENCH_3.json and BENCH_6.json archive these).
func BenchmarkSamplePolyInto(b *testing.B) {
	cfg := testConfig(b)
	const n = 256
	const q = 7681
	for _, name := range Names() {
		b.Run(name, func(b *testing.B) {
			e, err := New(name, cfg, rng.NewXorshift128(1))
			if err != nil {
				b.Fatal(err)
			}
			dst := make([]uint32, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.SamplePolyInto(dst, q)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/coeff")
		})
	}
}
