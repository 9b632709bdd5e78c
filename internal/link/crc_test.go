package link

import (
	"math/rand"
	"testing"
)

// bitwiseCRC16 is the shift-per-bit CRC-16/CCITT-FALSE the table-driven
// crc16 replaced, kept as its oracle.
func bitwiseCRC16(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

func TestCRC16MatchesBitwiseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	buf := make([]byte, 600)
	for trial := 0; trial < 2000; trial++ {
		data := buf[:rng.Intn(len(buf)+1)]
		rng.Read(data)
		if got, want := crc16(data), bitwiseCRC16(data); got != want {
			t.Fatalf("crc16(% x) = %#04x, oracle %#04x", data, got, want)
		}
	}
	for b := 0; b < 256; b++ {
		if got, want := crc16([]byte{byte(b)}), bitwiseCRC16([]byte{byte(b)}); got != want {
			t.Fatalf("crc16(%#02x) = %#04x, oracle %#04x", b, got, want)
		}
	}
}
