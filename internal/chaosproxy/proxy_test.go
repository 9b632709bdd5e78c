package chaosproxy

import (
	"bytes"
	"io"
	"math/bits"
	"net"
	"runtime"
	"testing"
	"time"
)

// echoServer accepts connections and echoes bytes back until closed.
func echoServer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("echo listen: %v", err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				io.Copy(conn, conn)
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln
}

func startProxy(t *testing.T, target string, prof Profile, seed int64) *Proxy {
	t.Helper()
	p, err := New(Config{ListenAddr: "127.0.0.1:0", TargetAddr: target, Profile: prof, Seed: seed})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	p.Start()
	t.Cleanup(func() { p.Close() })
	return p
}

func TestCleanProfileIsTransparent(t *testing.T) {
	ln := echoServer(t)
	p := startProxy(t, ln.Addr().String(), Profile{Name: "clean"}, 1)

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	msg := []byte("sidewinder chaos transparency check")
	if _, err := conn.Write(msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := make([]byte, len(msg))
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo mismatch: %q != %q", got, msg)
	}
	if n := p.Stats().Conns.Load(); n != 1 {
		t.Fatalf("conns = %d, want 1", n)
	}
	// The proxy counts a chunk after writing it, so the echo can reach the
	// client before the return leg is counted: poll until it is.
	want := uint64(2 * len(msg))
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().ForwardedBytes.Load() < want && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if p.Stats().ForwardedBytes.Load() < want {
		t.Fatalf("forwarded %d bytes, want >= %d", p.Stats().ForwardedBytes.Load(), want)
	}
}

func TestResetKillsConnection(t *testing.T) {
	ln := echoServer(t)
	p := startProxy(t, ln.Addr().String(), Profile{Name: "resets", ResetProb: 1}, 2)

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("doomed")); err != nil {
		t.Fatalf("write: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 8)); err == nil {
		t.Fatalf("read succeeded through a ResetProb=1 proxy")
	}
	if p.Stats().Resets.Load() == 0 {
		t.Fatalf("no resets counted")
	}
}

func TestMidFrameCutForwardsStrictPrefix(t *testing.T) {
	ln := echoServer(t)
	p := startProxy(t, ln.Addr().String(), Profile{Name: "cut", CutProb: 1}, 3)

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	msg := bytes.Repeat([]byte{0xAB}, 256)
	if _, err := conn.Write(msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	// The echo server only saw a strict prefix before the kill, so the
	// client can read back at most len(msg)-1 bytes before an error.
	n, _ := io.ReadFull(conn, make([]byte, len(msg)))
	if n >= len(msg) {
		t.Fatalf("full message survived a CutProb=1 proxy")
	}
	if p.Stats().Cuts.Load() == 0 {
		t.Fatalf("no cuts counted")
	}
}

func TestCorruptionFlipsExactlyOneBit(t *testing.T) {
	ln := echoServer(t)
	p := startProxy(t, ln.Addr().String(), Profile{Name: "corrupt", CorruptProb: 1}, 4)

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	msg := bytes.Repeat([]byte{0x55}, 64)
	if _, err := conn.Write(msg); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := make([]byte, len(msg))
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	// Both directions corrupt one bit per chunk, so the round trip
	// differs from the original in one or two bits.
	diff := 0
	for i := range msg {
		diff += bits.OnesCount8(msg[i] ^ got[i])
	}
	if diff < 1 || diff > 2 {
		t.Fatalf("round trip flipped %d bits, want 1..2", diff)
	}
	if p.Stats().CorruptChunks.Load() == 0 {
		t.Fatalf("no corruption counted")
	}
}

func TestPartitionBlackholesBytes(t *testing.T) {
	ln := echoServer(t)
	p := startProxy(t, ln.Addr().String(), Profile{
		Name:         "partition",
		PartitionDur: 30 * time.Second, // window opens immediately and outlives the test
	}, 5)

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("into the void")); err != nil {
		t.Fatalf("write: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	if _, err := conn.Read(make([]byte, 8)); err == nil {
		t.Fatalf("read returned data through a blackhole partition")
	}
	if p.Stats().BlackholedBytes.Load() == 0 {
		t.Fatalf("no blackholed bytes counted")
	}
}

func TestCloseInterruptsStalledPumps(t *testing.T) {
	ln := echoServer(t)
	p := startProxy(t, ln.Addr().String(), Profile{
		Name:      "stall",
		StallProb: 1,
		StallDur:  time.Hour,
	}, 6)

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("stall me")); err != nil {
		t.Fatalf("write: %v", err)
	}
	start := time.Now()
	done := make(chan struct{})
	go func() { p.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("Close did not interrupt an hour-long stall")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("Close took %v", time.Since(start))
	}
}

func TestPumpSeedIsDeterministicAndDirectional(t *testing.T) {
	if pumpSeed(42, 7, 0) != pumpSeed(42, 7, 0) {
		t.Fatalf("pumpSeed not deterministic")
	}
	if pumpSeed(42, 7, 0) == pumpSeed(42, 7, 1) {
		t.Fatalf("directions share a PRNG stream")
	}
	if pumpSeed(42, 7, 0) == pumpSeed(43, 7, 0) {
		t.Fatalf("seeds share a PRNG stream")
	}
}

func TestProfileRegistry(t *testing.T) {
	names := Profiles()
	if len(names) < 6 {
		t.Fatalf("expected >= 6 built-in profiles, got %v", names)
	}
	for _, n := range names {
		p, err := ProfileByName(n)
		if err != nil {
			t.Fatalf("ProfileByName(%q): %v", n, err)
		}
		if p.Name != n {
			t.Fatalf("profile %q carries name %q", n, p.Name)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("built-in %q invalid: %v", n, err)
		}
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Fatalf("unknown profile resolved")
	}
	if err := (Profile{ResetProb: 1.5}).Validate(); err == nil {
		t.Fatalf("ResetProb 1.5 validated")
	}
	if err := (Profile{StallDur: -1}).Validate(); err == nil {
		t.Fatalf("negative StallDur validated")
	}
	if _, err := New(Config{Profile: Profile{CutProb: 2}}); err == nil {
		t.Fatalf("New accepted an invalid profile")
	}
	if _, err := New(Config{}); err == nil {
		t.Fatalf("New accepted an empty target")
	}
}
