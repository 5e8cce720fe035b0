package sampler

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"ringlwe/internal/gauss"
	"ringlwe/internal/rng"
)

// TestCDTStreamDigest pins the "cdt" engine's output stream over seeded
// sources: the SHA-256 of 64 polynomials of 1024 coefficients each, per
// parameter set. The digests were computed when the engine still had its
// own copy of the search, so they also pin that moving to gauss.CDT moved
// no sample; a change to the inversion or to the draw order shows here.
func TestCDTStreamDigest(t *testing.T) {
	for _, tc := range []struct {
		name string
		mat  *gauss.Matrix
		q    uint32
		want string
	}{
		{"P1", gauss.P1Matrix(), 7681, "a1530b2668e41b46fee1cae3a5a0b867"},
		{"P2", gauss.P2Matrix(), 12289, "416628795b8262164f39b892c978473d"},
	} {
		cfg, err := NewConfig(tc.mat)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New("cdt", cfg, rng.NewXorshift128(2026))
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		poly := make([]uint32, 1024)
		var b [4]byte
		for range 64 {
			eng.SamplePolyInto(poly, tc.q)
			for _, c := range poly {
				binary.LittleEndian.PutUint32(b[:], c)
				h.Write(b[:])
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)[:16]); got != tc.want {
			t.Errorf("%s: cdt stream digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
