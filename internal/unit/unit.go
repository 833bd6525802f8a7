// Package unit provides physical quantities used throughout the simulator:
// bandwidths, byte sizes and the derived path quantities (serialization
// delay, bandwidth-delay product) that the experiments are parameterized by.
package unit

import (
	"fmt"
	"time"
)

// Bandwidth is a link rate in bits per second.
type Bandwidth int64

// Common bandwidths.
const (
	BitPerSecond Bandwidth = 1
	Kbps                   = 1000 * BitPerSecond
	Mbps                   = 1000 * Kbps
	Gbps                   = 1000 * Mbps
)

// String formats the bandwidth with a binary-free SI suffix, e.g. "100Mbps".
func (b Bandwidth) String() string {
	switch {
	case b >= Gbps && b%Gbps == 0:
		return fmt.Sprintf("%dGbps", int64(b/Gbps))
	case b >= Mbps && b%Mbps == 0:
		return fmt.Sprintf("%dMbps", int64(b/Mbps))
	case b >= Kbps && b%Kbps == 0:
		return fmt.Sprintf("%dKbps", int64(b/Kbps))
	default:
		return fmt.Sprintf("%dbps", int64(b))
	}
}

// BytesPerSecond returns the rate in bytes per second.
func (b Bandwidth) BytesPerSecond() float64 { return float64(b) / 8 }

// Serialization returns the time to clock n bytes onto a link of this rate.
// A zero bandwidth means "infinitely fast" and yields zero delay.
func (b Bandwidth) Serialization(n ByteSize) time.Duration {
	if b <= 0 {
		return 0
	}
	bits := int64(n) * 8
	// bits / (bits/sec) = sec; keep nanosecond precision without overflow
	// for any realistic packet size and rate.
	sec := float64(bits) / float64(b)
	return time.Duration(sec * float64(time.Second))
}

// Serializer is a Bandwidth with a two-entry serialization-delay memo. A
// link carries a handful of distinct packet sizes (full data segments and
// bare ACKs, essentially), and Serialization's float divide is measurable on
// the per-packet path; the memo answers repeats exactly, falling back to the
// full computation on a miss.
type Serializer struct {
	rate Bandwidth
	sz   [2]ByteSize
	st   [2]time.Duration
}

// NewSerializer returns a memoizing serializer for the given rate.
func NewSerializer(b Bandwidth) Serializer {
	return Serializer{rate: b, sz: [2]ByteSize{-1, -1}}
}

// Serialization returns exactly the rate's Serialization(n), memoized.
func (s *Serializer) Serialization(n ByteSize) time.Duration {
	if n == s.sz[0] {
		return s.st[0]
	}
	if n == s.sz[1] {
		return s.st[1]
	}
	d := s.rate.Serialization(n)
	s.sz[1], s.st[1] = s.sz[0], s.st[0]
	s.sz[0], s.st[0] = n, d
	return d
}

// ByteSize is a size in bytes.
type ByteSize int64

// Common sizes.
const (
	Byte ByteSize = 1
	KB            = 1000 * Byte
	MB            = 1000 * KB
	GB            = 1000 * MB
	KiB           = 1024 * Byte
	MiB           = 1024 * KiB
)

// String formats the size with an SI suffix when it divides evenly.
func (s ByteSize) String() string {
	switch {
	case s >= GB && s%GB == 0:
		return fmt.Sprintf("%dGB", int64(s/GB))
	case s >= MB && s%MB == 0:
		return fmt.Sprintf("%dMB", int64(s/MB))
	case s >= KB && s%KB == 0:
		return fmt.Sprintf("%dKB", int64(s/KB))
	default:
		return fmt.Sprintf("%dB", int64(s))
	}
}

// Throughput returns the achieved rate for n bytes delivered in d.
func Throughput(n ByteSize, d time.Duration) Bandwidth {
	if d <= 0 {
		return 0
	}
	bits := float64(n) * 8
	return Bandwidth(bits / d.Seconds())
}
