package ntt

// hasAVX2 reports whether the CPU and the operating system support AVX2.
// NewVectorEngine runs the assembly kernels of vector_amd64.s only then.
var hasAVX2 = detectAVX2()

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0, which reports whether the
// operating system saves the AVX register state across context switches.
// Only valid when CPUID leaf 1 reports OSXSAVE.
func xgetbv() (eax, edx uint32)

// detectAVX2 needs the AVX2 feature bit (leaf 7 EBX bit 5), AVX support
// (leaf 1 ECX bit 28) and OS state support (OSXSAVE, and XCR0 bits 1 and 2:
// SSE and AVX state both saved).
func detectAVX2() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// forwardAVX2 is vecForward in AVX2 over a canonical a of length n ≥ 32,
// for 4q ≤ 2¹⁶, with tw = simdTables.fwd.
//
//go:noescape
func forwardAVX2(a, tw []uint32, q uint32)

// inverseAVX2 is vecInverse in AVX2 with tw = simdTables.inv; see
// forwardAVX2.
//
//go:noescape
func inverseAVX2(a, tw []uint32, q uint32)

// pointwiseMulAVX2 is the vector engine's PointwiseMul in AVX2 for
// a, b < 2q, 4q ≤ 2¹⁶ and n a multiple of 16, with qInv = q⁻¹ mod 2¹⁶ and
// r = simdTables.mont.
//
//go:noescape
func pointwiseMulAVX2(c, a, b []uint32, q, qInv, r uint32)
