// Package chaosproxy is a seeded fault-injecting TCP proxy for hardening
// the fleet ingest path. It sits between fleetload and sidewinderd and
// subjects every connection to a profile of network hostility —
// connection resets, mid-frame cuts, byte corruption, latency jitter,
// slow-loris stalls, and timed blackhole partitions — with every fault
// decision drawn from a PRNG seeded by (Seed, connection index,
// direction), so a given profile × seed replays the same fault sequence
// run after run. It is the socket-layer sibling of the intra-device link
// fault injector (internal/link.FaultConfig), extended with the failure
// modes only a real network has.
package chaosproxy

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Config parameterizes a proxy instance.
type Config struct {
	// ListenAddr is the address clients dial (e.g. "127.0.0.1:0").
	ListenAddr string
	// TargetAddr is the real daemon's ingest address.
	TargetAddr string
	// Profile selects the fault mix.
	Profile Profile
	// Seed drives every fault decision. Same seed, same profile, same
	// connection order → same faults.
	Seed int64
	// Logf, when non-nil, receives one line per injected fault class
	// transition (connection opened/killed). Keep nil in tests.
	Logf func(format string, args ...any)
}

// Stats tallies what the proxy did, with atomic counters so tests and
// the daemon wrapper can read them live.
type Stats struct {
	Conns           atomic.Uint64 // accepted client connections
	DialErrors      atomic.Uint64 // upstream dial failures (conn dropped)
	Resets          atomic.Uint64 // abrupt connection kills (RST where possible)
	Cuts            atomic.Uint64 // mid-frame cuts: partial chunk forwarded, then killed
	CorruptChunks   atomic.Uint64 // chunks with one bit flipped
	Delays          atomic.Uint64 // jitter sleeps
	Stalls          atomic.Uint64 // slow-loris stalls
	BlackholedBytes atomic.Uint64 // bytes silently dropped during a partition
	ForwardedBytes  atomic.Uint64 // bytes delivered intact (post-mangling)
}

// Snapshot is a plain-values copy of Stats for reports.
type Snapshot struct {
	Conns           uint64 `json:"conns"`
	DialErrors      uint64 `json:"dial_errors,omitempty"`
	Resets          uint64 `json:"resets,omitempty"`
	Cuts            uint64 `json:"cuts,omitempty"`
	CorruptChunks   uint64 `json:"corrupt_chunks,omitempty"`
	Delays          uint64 `json:"delays,omitempty"`
	Stalls          uint64 `json:"stalls,omitempty"`
	BlackholedBytes uint64 `json:"blackholed_bytes,omitempty"`
	ForwardedBytes  uint64 `json:"forwarded_bytes"`
}

// Snapshot copies the live counters.
func (s *Stats) Snapshot() Snapshot {
	return Snapshot{
		Conns:           s.Conns.Load(),
		DialErrors:      s.DialErrors.Load(),
		Resets:          s.Resets.Load(),
		Cuts:            s.Cuts.Load(),
		CorruptChunks:   s.CorruptChunks.Load(),
		Delays:          s.Delays.Load(),
		Stalls:          s.Stalls.Load(),
		BlackholedBytes: s.BlackholedBytes.Load(),
		ForwardedBytes:  s.ForwardedBytes.Load(),
	}
}

// Proxy is a running fault-injecting TCP proxy.
type Proxy struct {
	cfg   Config
	ln    net.Listener
	start time.Time
	next  atomic.Uint64 // connection index
	stats Stats

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	done  chan struct{}
	wg    sync.WaitGroup
}

// New validates the config, binds the listen address, and returns a
// proxy ready to Serve.
func New(cfg Config) (*Proxy, error) {
	if err := cfg.Profile.Validate(); err != nil {
		return nil, err
	}
	if cfg.TargetAddr == "" {
		return nil, fmt.Errorf("chaosproxy: target address required")
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("chaosproxy: listen: %w", err)
	}
	return &Proxy{
		cfg:   cfg,
		ln:    ln,
		start: time.Now(),
		conns: make(map[net.Conn]struct{}),
		done:  make(chan struct{}),
	}, nil
}

// Addr is the proxy's client-facing listen address.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Stats exposes the live fault counters.
func (p *Proxy) Stats() *Stats { return &p.stats }

// Start serves in the background.
func (p *Proxy) Start() {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.Serve()
	}()
}

// Serve accepts and proxies connections until Close.
func (p *Proxy) Serve() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		idx := p.next.Add(1) - 1
		p.stats.Conns.Add(1)
		p.logf("conn %d: accepted from %s", idx, conn.RemoteAddr())
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.handle(conn, idx)
		}()
	}
}

// Close stops the listener, kills every live connection, and waits for
// the pumps to drain.
func (p *Proxy) Close() error {
	select {
	case <-p.done:
		return nil
	default:
	}
	close(p.done)
	err := p.ln.Close()
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
	return err
}

func (p *Proxy) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}

// track registers a live connection for Close to kill. A connection that
// a handler reaches only after Close swept the set is closed at once, so
// its pumps cannot block Close's drain.
func (p *Proxy) track(c net.Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	select {
	case <-p.done:
		c.Close()
	default:
		p.conns[c] = struct{}{}
	}
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

// inPartition reports whether the timed blackhole window is open.
func (p *Proxy) inPartition() bool {
	prof := p.cfg.Profile
	if prof.PartitionDur <= 0 {
		return false
	}
	since := time.Since(p.start)
	return since >= prof.PartitionAfter && since < prof.PartitionAfter+prof.PartitionDur
}

// handle proxies one client connection to the target with a pump per
// direction. Each pump gets its own PRNG derived from (seed, connection
// index, direction) so fault sequences don't depend on goroutine
// scheduling.
func (p *Proxy) handle(client net.Conn, idx uint64) {
	defer client.Close()
	server, err := net.Dial("tcp", p.cfg.TargetAddr)
	if err != nil {
		p.stats.DialErrors.Add(1)
		p.logf("conn %d: upstream dial failed: %v", idx, err)
		return
	}
	defer server.Close()
	p.track(client)
	p.track(server)
	defer p.untrack(client)
	defer p.untrack(server)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); p.pump(client, server, idx, 0) }()
	go func() { defer wg.Done(); p.pump(server, client, idx, 1) }()
	wg.Wait()
	p.logf("conn %d: closed", idx)
}

// pumpSeed mixes the proxy seed with the connection index and direction
// (SplitMix64-style finalizer) so per-pump streams are independent.
func pumpSeed(seed int64, idx uint64, dir int) int64 {
	z := uint64(seed) ^ (idx*2 + uint64(dir) + 0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// pump copies src→dst, running every chunk through the fault lottery.
func (p *Proxy) pump(src, dst net.Conn, idx uint64, dir int) {
	rng := rand.New(rand.NewSource(pumpSeed(p.cfg.Seed, idx, dir)))
	buf := make([]byte, 1<<12)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if !p.deliver(rng, buf[:n], src, dst, idx) {
				return
			}
		}
		if err != nil {
			// Either side ending ends the pair: the protocol has no
			// half-open sessions.
			src.Close()
			dst.Close()
			return
		}
	}
}

// kill tears both legs down abruptly. SetLinger(0) turns the close into
// a TCP RST where the platform allows it — the authentic "connection
// reset by peer" a mobile uplink produces.
func kill(a, b net.Conn) {
	for _, c := range []net.Conn{a, b} {
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetLinger(0)
		}
		c.Close()
	}
}

// deliver runs one chunk through the fault lottery and forwards what
// survives. Returns false when the connection pair was killed.
func (p *Proxy) deliver(rng *rand.Rand, chunk []byte, src, dst net.Conn, idx uint64) bool {
	prof := p.cfg.Profile
	// Blackhole partition: bytes vanish, no errors, no RST — both ends
	// just stop hearing each other, which is what exercises the client's
	// ack timeout and the server's idle reaper.
	if p.inPartition() {
		p.stats.BlackholedBytes.Add(uint64(len(chunk)))
		return true
	}
	if prof.CutProb > 0 && rng.Float64() < prof.CutProb {
		// Mid-frame cut: a strict prefix escapes, then the line dies. The
		// receiver is left holding a torn frame.
		k := rng.Intn(len(chunk))
		if k > 0 {
			dst.Write(chunk[:k])
		}
		p.stats.Cuts.Add(1)
		p.logf("conn %d: mid-frame cut after %d/%d bytes", idx, k, len(chunk))
		kill(src, dst)
		return false
	}
	if prof.ResetProb > 0 && rng.Float64() < prof.ResetProb {
		p.stats.Resets.Add(1)
		p.logf("conn %d: reset", idx)
		kill(src, dst)
		return false
	}
	if prof.CorruptProb > 0 && rng.Float64() < prof.CorruptProb {
		i := rng.Intn(len(chunk))
		chunk[i] ^= 1 << uint(rng.Intn(8))
		p.stats.CorruptChunks.Add(1)
	}
	if prof.StallProb > 0 && rng.Float64() < prof.StallProb {
		p.stats.Stalls.Add(1)
		p.logf("conn %d: stalling %v", idx, prof.StallDur)
		p.sleep(prof.StallDur)
	} else if prof.DelayProb > 0 && rng.Float64() < prof.DelayProb {
		p.stats.Delays.Add(1)
		max := int64(prof.DelayMax)
		if max <= 0 {
			max = int64(time.Millisecond)
		}
		p.sleep(time.Duration(1 + rng.Int63n(max)))
	}
	if _, err := dst.Write(chunk); err != nil {
		src.Close()
		dst.Close()
		return false
	}
	p.stats.ForwardedBytes.Add(uint64(len(chunk)))
	return true
}

// sleep waits out a fault-injected delay but aborts promptly on Close.
func (p *Proxy) sleep(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-p.done:
	}
}
