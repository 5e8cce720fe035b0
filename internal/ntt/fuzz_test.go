package ntt

import (
	"encoding/binary"
	"testing"
)

// fuzzPoly derives a canonical polynomial of dimension n from raw fuzz
// bytes: little-endian 16-bit words reduced mod q (reduction bias is fine —
// the fuzzer explores the value space, the oracle defines correctness).
func fuzzPoly(data []byte, off, n int, q uint32) Poly {
	a := make(Poly, n)
	for i := range a {
		k := off + 2*i
		var v uint32
		if k+1 < len(data) {
			v = uint32(binary.LittleEndian.Uint16(data[k:]))
		}
		a[i] = v % q
	}
	return a
}

// FuzzEngineMulDifferential drives two fuzzer-chosen polynomials through
// every engine's Forward → PointwiseMul → Inverse pipeline (both vector
// kernels) and
// cross-checks each result against the O(n²) schoolbook oracle, on every
// engineTestSets entry. Any disagreement — between an engine and the oracle, or between
// two engines — is a bug in a butterfly, a twiddle table or a reduction
// bound. Runs as a plain test over the seed corpus under `go test`.
func FuzzEngineMulDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0xff, 0xff, 0x01, 0x30})
	seed := make([]byte, 4*512)
	for i := range seed {
		seed[i] = byte(i*31 + 7)
	}
	f.Add(seed)

	type fuzzSet struct {
		tab     *Tables
		engines []namedEngine
	}
	var sets []fuzzSet
	for _, ps := range engineTestSets {
		tab := engineTables(f, ps.q, ps.n)
		sets = append(sets, fuzzSet{tab, testEngines(f, tab)})
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, s := range sets {
			n := s.tab.N
			q := s.tab.M.Q
			a := fuzzPoly(data, 0, n, q)
			b := fuzzPoly(data, 2*n, n, q)
			want := s.tab.Naive(a, b)
			for _, e := range s.engines {
				dst := engineMul(e, a, b)
				for i := range dst {
					if dst[i] != want[i] {
						t.Fatalf("engine %s n=%d q=%d: coeff %d = %d, oracle %d",
							e.name, n, q, i, dst[i], want[i])
					}
				}
			}
		}
	})
}
