package main

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/cmplx"
	"net"
	"sync"
	"syscall"
	"time"
)

// The gated times are scaled to a reference speed, because the host's
// speed drifts: on a 2-vCPU VM of a shared host, the same work minutes
// apart took up to 2.4 times as long, and the benchmark's own reference
// code slowed with it. So each measured unit (a set-up repetition, a batch
// pass, a closed-loop round) runs between two samples of a fixed
// reference kernel of the same kind of work, and is reported as
//
//	time × nominal / mean(kernel sample before, kernel sample after)
//
// with the median taken over a run's units, where nominal is the kernel's
// typical sample on the development VM (2 vCPUs, Xeon, go1.24.0), so the
// scaled times read as seconds on that VM at its usual speed. The kernels
// are the benchmark's own code and never change with the program:
//
//   - refKernel, for computing work (set-up and the batch passes): map
//     inserts, iteration and deletes, a floating-point dependency chain
//     over an L1-sized buffer, a pointer chase through a 32 MB cycle and
//     radix-2 FFTs of 1024 points, on as many goroutines as the
//     workload's workers. The FFT part is there because optin-sweeps
//     spends about half its time in FFTs and slowed in spells the other
//     parts missed: over seven minutes of back-to-back passes, 30 s
//     windows of passes spread 0.17 raw, 0.11 scaled without it and 0.08
//     with it.
//   - echoKernel, for the ingest rounds: 512-byte round trips over
//     loopback TCP, one connection per ingest connection. The computing
//     kernel does not track ingest: over twelve runs through a slow spell
//     the median round time spread 0.23 raw, 0.13 scaled by the computing
//     kernel and 0.03 scaled by the echo kernel.
//
// Neither allocates while it runs, and the chase table lives outside the
// Go heap, so they do not move the heap figures, which the garbage
// collector paces by the live heap. The raw times are printed beside the
// scaled ones.

// Nominal samples of the two kernels on the development VM, in seconds.
const (
	refNominal  = 0.090
	echoNominal = 0.056
)

const (
	refMapRounds = 10
	refMapKeys   = 20000
	refMapMask   = 1<<14 - 1
	refFPRounds  = 500
	refFPLen     = 4096
	refChaseLen  = 1 << 23 // 4-byte entries: 32 MB
	refChaseHops = 100000
	refFFTLen    = 1024
	refFFTs      = 1200
)

// refKernel is the reference kernel with its preallocated state.
type refKernel struct {
	chase   []byte // refChaseLen little-endian uint32 next indices, off heap
	twiddle []complex128
	maps    []map[int64]int64
	bufs    [][]float64
	ffts    [][]complex128
	sinks   []float64
}

// newRefKernel builds the kernel's state for workers goroutines. Entry i
// of the chase table holds (a·i + c) mod refChaseLen; with c odd and
// a ≡ 1 (mod 4) that map is a single cycle through every entry (the
// Hull-Dobell theorem), so the chase never settles into a short loop
// that fits in cache.
func newRefKernel(workers int) (*refKernel, error) {
	chase, err := syscall.Mmap(-1, 0, 4*refChaseLen, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	const a, c = 1103515245, 12345
	for i := uint32(0); i < refChaseLen; i++ {
		binary.LittleEndian.PutUint32(chase[4*i:], (a*i+c)&(refChaseLen-1))
	}
	k := &refKernel{
		chase:   chase,
		twiddle: make([]complex128, refFFTLen/2),
		maps:    make([]map[int64]int64, workers),
		bufs:    make([][]float64, workers),
		ffts:    make([][]complex128, workers),
		sinks:   make([]float64, workers),
	}
	for i := range k.twiddle {
		k.twiddle[i] = cmplx.Exp(complex(0, -2*math.Pi*float64(i)/refFFTLen))
	}
	for w := range k.maps {
		k.maps[w] = make(map[int64]int64, refMapMask+1)
		k.bufs[w] = make([]float64, refFPLen)
		k.ffts[w] = make([]complex128, refFFTLen)
	}
	k.sample() // first touch of the maps
	return k, nil
}

// timer returns a refTimer scaled by this kernel.
func (k *refKernel) timer() *refTimer {
	return &refTimer{sample: func() (float64, error) { return k.sample(), nil }, nominal: refNominal}
}

// sample runs the kernel once on every goroutine at the same time and
// returns the wall time until all have finished, in seconds.
func (k *refKernel) sample() float64 {
	start := time.Now()
	var wg sync.WaitGroup
	for w := range k.maps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k.sinks[w] = k.work(w)
		}()
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// work is one goroutine's share of a sample.
func (k *refKernel) work(w int) float64 {
	m := k.maps[w]
	clear(m)
	for r := 0; r < refMapRounds; r++ {
		for i := int64(0); i < refMapKeys; i++ {
			m[(i*2654435761+int64(w))&refMapMask] += i
		}
		for key, v := range m {
			if v&7 == 0 {
				delete(m, key)
			}
		}
	}
	buf := k.bufs[w]
	x := 0.0
	for r := 0; r < refFPRounds; r++ {
		for i := range buf {
			buf[i] = buf[i]*0.999 + float64(i&15)*1e-3
			x += buf[i] * buf[(i*7)&(refFPLen-1)]
		}
	}
	j := uint32(w * 7919)
	for i := 0; i < refChaseHops; i++ {
		j = binary.LittleEndian.Uint32(k.chase[4*j:])
	}
	a := k.ffts[w]
	for r := 0; r < refFFTs; r++ {
		for i := range a {
			a[i] = complex(float64(i&7), 0)
		}
		k.fft(a)
	}
	return x + float64(len(m)) + float64(j) + real(a[1])
}

// fft transforms a in place: an iterative radix-2 FFT, len(a) = refFFTLen.
func (k *refKernel) fft(a []complex128) {
	n := len(a)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half, step := size/2, n/size
		for s := 0; s < n; s += size {
			for i := 0; i < half; i++ {
				t := k.twiddle[i*step] * a[s+i+half]
				a[s+i+half] = a[s+i] - t
				a[s+i] += t
			}
		}
	}
}

// echoKernel is the reference kernel for ingest: connections over
// loopback to an echo server of the benchmark's own.
type echoKernel struct {
	ln    net.Listener
	conns []net.Conn
	bufs  [][]byte
	done  sync.WaitGroup // the echo goroutines
}

const (
	echoRoundTrips = 2000
	echoMsg        = 512
)

// newEchoKernel dials n connections to a fresh echo listener.
func newEchoKernel(n int) (*echoKernel, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &echoKernel{ln: ln}
	for i := 0; i < n; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, errors.Join(err, e.close())
		}
		e.conns = append(e.conns, c)
		e.bufs = append(e.bufs, make([]byte, echoMsg))
		s, err := ln.Accept()
		if err != nil {
			return nil, errors.Join(err, e.close())
		}
		e.done.Add(1)
		go func() {
			defer e.done.Done()
			defer s.Close()
			buf := make([]byte, echoMsg)
			for {
				if _, err := io.ReadFull(s, buf); err != nil {
					return
				}
				if _, err := s.Write(buf); err != nil {
					return
				}
			}
		}()
	}
	return e, nil
}

// sample makes echoRoundTrips round trips on every connection at once and
// returns the wall time until all have finished, in seconds.
func (e *echoKernel) sample() (float64, error) {
	start := time.Now()
	errs := make([]error, len(e.conns))
	var wg sync.WaitGroup
	for i, c := range e.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < echoRoundTrips && errs[i] == nil; r++ {
				if _, err := c.Write(e.bufs[i]); err != nil {
					errs[i] = err
				} else if _, err := io.ReadFull(c, e.bufs[i]); err != nil {
					errs[i] = err
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start).Seconds(), errors.Join(errs...)
}

// close closes the connections and the listener and waits for the echo
// goroutines to end.
func (e *echoKernel) close() error {
	err := e.ln.Close()
	for _, c := range e.conns {
		err = errors.Join(err, c.Close())
	}
	e.done.Wait()
	return err
}

// timer returns a refTimer scaled by this kernel.
func (e *echoKernel) timer() *refTimer {
	return &refTimer{sample: e.sample, nominal: echoNominal}
}

// refTimer collects measured units with the kernel samples around each.
// Consecutive units share a sample: the one after a unit is the one
// before the next.
type refTimer struct {
	sample  func() (float64, error)
	nominal float64   // the kernel's nominal sample, seconds
	raw     []float64 // seconds per unit
	refs    []float64 // mean kernel sample around each unit, seconds
	last    float64   // the latest sample, 0 before the first
}

// time runs f after a kernel sample and before another and records the
// time f reports for its unit, in seconds.
func (t *refTimer) time(f func() (float64, error)) error {
	if t.last == 0 {
		first, err := t.sample()
		if err != nil {
			return err
		}
		t.last = first
	}
	before := t.last
	d, err := f()
	if err != nil {
		return err
	}
	if t.last, err = t.sample(); err != nil {
		return err
	}
	t.raw = append(t.raw, d)
	t.refs = append(t.refs, (before+t.last)/2)
	return nil
}

// units returns each unit's time at the reference speed.
func (t *refTimer) units() []float64 { return scaledUnits(t.raw, t.refs, t.nominal) }

// scaled returns the median of units.
func (t *refTimer) scaled() float64 { return median(t.units()) }

// scaledUnits returns xs[i]·nominal/refs[i] for every i.
func scaledUnits(xs, refs []float64, nominal float64) []float64 {
	s := make([]float64, len(xs))
	for i, x := range xs {
		s[i] = x * nominal / refs[i]
	}
	return s
}
