//go:build !amd64

package ntt

// hasAVX2 is false off amd64: the vector engine runs its portable kernels.
const hasAVX2 = false

func forwardAVX2(a, tw []uint32, q uint32) { panic("ntt: AVX2 kernel on a non-amd64 build") }

func inverseAVX2(a, tw []uint32, q uint32) { panic("ntt: AVX2 kernel on a non-amd64 build") }

func pointwiseMulAVX2(c, a, b []uint32, q, qInv, r uint32) {
	panic("ntt: AVX2 kernel on a non-amd64 build")
}
