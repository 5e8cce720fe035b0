package ringlwe

import (
	"errors"
	"fmt"
	"testing"
)

// BenchmarkEncryptEngineSampler measures the steady-state workspace
// encrypt path across the full engine × sampler matrix, the end-to-end
// view BENCH_3.json archives: the NTT engine sets the transform cost, the
// sampler backend the error-generation cost, and the two knobs compose
// independently.
func BenchmarkEncryptEngineSampler(b *testing.B) {
	p := P1()
	msg := make([]byte, p.MessageSize())
	for i := range msg {
		msg[i] = byte(i)
	}
	for _, engine := range Engines() {
		for _, smp := range Samplers() {
			b.Run(fmt.Sprintf("%s/%s", engine, smp), func(b *testing.B) {
				s := NewDeterministic(p, 1, WithEngine(engine), WithSampler(smp))
				pk, _, err := s.GenerateKeys()
				if err != nil {
					b.Fatal(err)
				}
				w := s.NewWorkspace()
				ct := NewCiphertext(p)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := w.EncryptInto(ct, pk, msg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkKEMPairOS measures the production KEM configuration: one
// workspace Encapsulate plus Decapsulate on a New scheme, so the wide-ky
// sampler draws from the workspace's OS-keyed AES-CTR keystream. The
// -constant-time rows run the same pair under ConstantTime() (vector +
// cdt), so the price of the constant-time profile stays measured.
func BenchmarkKEMPairOS(b *testing.B) {
	for _, p := range []*Params{P1(), P2()} {
		for _, row := range []struct {
			suffix string
			opts   []Option
		}{{"", nil}, {"-constant-time", []Option{ConstantTime()}}} {
			b.Run(p.Name()+row.suffix, func(b *testing.B) {
				pk, sk, err := NewDeterministic(p, 1).GenerateKeys()
				if err != nil {
					b.Fatal(err)
				}
				w := New(p, row.opts...).NewWorkspace()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					blob, _, err := w.Encapsulate(pk)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := w.Decapsulate(sk, blob); err != nil && !errors.Is(err, ErrDecapsulation) {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
