//go:build !amd64

package dsp

// useAVX is false off amd64: the stage pairs and the gate scans run their
// Go loops. Tests may write it, as on amd64.
var useAVX bool

func fusedPairAVX(x []complex128, w []float64) { panic("dsp: no AVX kernel on this GOARCH") }

func realPairAVX(dst []complex128, x []float64, rev []int, wr, wi float64) {
	panic("dsp: no AVX kernel on this GOARCH")
}

func gatherPairAVX(dst, src []complex128, rev []int, w []float64) {
	panic("dsp: no AVX kernel on this GOARCH")
}

func finiteAVX(x []complex128) bool { panic("dsp: no AVX kernel on this GOARCH") }

func realFastOKAVX(x []float64, scale float64) bool { panic("dsp: no AVX kernel on this GOARCH") }
