package dsp

// useAVX selects the AVX kernels for the stage pairs and the gate scans.
// It is set once, from CPUID and XGETBV, before any transform runs; tests
// are its only other writer, to run the Go loops as the reference.
var useAVX = hasAVX()

// CPUID leaf 1 ECX bits and the XCR0 state bits the kernel needs.
const (
	cpuidOSXSAVE = 1 << 27 // the OS enabled XGETBV
	cpuidAVX     = 1 << 28
	xcr0SSE      = 1 << 1 // the OS saves XMM state
	xcr0AVX      = 1 << 2 // the OS saves the upper halves of YMM
)

// hasAVX reports whether the CPU has AVX and the OS saves YMM state
// across context switches. The kernel uses no AVX2 or FMA instruction.
func hasAVX() bool {
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&(cpuidOSXSAVE|cpuidAVX) != cpuidOSXSAVE|cpuidAVX {
		return false
	}
	return xgetbv()&(xcr0SSE|xcr0AVX) == xcr0SSE|xcr0AVX
}

// cpuid runs CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low half of XCR0.
func xgetbv() uint32

// fusedPairAVX runs one fused stage pair of half h = len(x)/4 (h >= 4,
// even) over one block x of 4h points: for k = 0, 2, ..., h-2, the
// butterfly4 groups k and k+1 of the quarters x[0:h], x[h:2h], x[2h:3h]
// and x[3h:4h] in the two 128-bit lanes of each register, with w in
// stageTables.vec's layout (12h float64s). Each complex product x*w is
// x*(re, re) + swap(x)*(-im, im): its real part a·c + b·(-d) is a·c - b·d
// and its imaginary part b·c + a·d is a·d + b·c, the same rounded
// operations as Go's; no FMA contracts them.
//
//go:noescape
func fusedPairAVX(x []complex128, w []float64)

// realPairAVX is realFirstPair's Go loop on unpadded x (len(x) ==
// len(dst) = n, n >= 16), run in source order r (the n/4-point bit
// reversal is its own inverse) four indices at a time: each quarter of x
// loads four adjacent values into one register, realGroup's operations
// run lane by lane, and lane j of r (a multiple of 4) stores its group
// at rev[r] plus 0, n/8, n/16 and 3n/16 groups for j = 0..3 (the bit
// reversal of r + j is rev[r] plus that of j).
//
//go:noescape
func realPairAVX(dst []complex128, x []float64, rev []int, wr, wi float64)

// gatherPairAVX is gatherFirstPair's loop (n = len(src) >= 8) two source
// indices r at a time, one group per 128-bit lane, with fusedPairAVX's
// complex products and the twiddles of stageTables.first; lane 1 of an
// even r stores its group n/8 groups after rev[r].
//
//go:noescape
func gatherPairAVX(dst, src []complex128, rev []int, w []float64)

// finiteAVX is finite's scan: it sums v - v over every part of x in four
// lanes and reports whether every lane is zero.
//
//go:noescape
func finiteAVX(x []complex128) bool

// realFastOKAVX is realFastOK's scan: it sums v*scale - v*scale over x in
// four lanes and reports whether every lane is zero.
//
//go:noescape
func realFastOKAVX(x []float64, scale float64) bool
