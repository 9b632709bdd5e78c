package dsp

// useAVX selects the AVX kernel for the fused stage pairs and the gate
// scans. It is set once, from CPUID and XGETBV, before any transform runs;
// tests are its only other writer, to run the Go loops as the reference.
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
