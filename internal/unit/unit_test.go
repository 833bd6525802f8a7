package unit

import (
	"testing"
	"testing/quick"
	"time"
)

func TestBandwidthString(t *testing.T) {
	cases := []struct {
		b    Bandwidth
		want string
	}{
		{100 * Mbps, "100Mbps"},
		{1 * Gbps, "1Gbps"},
		{56 * Kbps, "56Kbps"},
		{999, "999bps"},
		{1500 * Kbps, "1500Kbps"},
	}
	for _, c := range cases {
		if got := c.b.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.b), got, c.want)
		}
	}
}

func TestByteSizeString(t *testing.T) {
	cases := []struct {
		s    ByteSize
		want string
	}{
		{1500, "1500B"},
		{64 * KB, "64KB"},
		{750 * KB, "750KB"},
		{2 * MB, "2MB"},
		{3 * GB, "3GB"},
	}
	for _, c := range cases {
		if got := c.s.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestSerializationDelay(t *testing.T) {
	// 1500 bytes at 100 Mbps = 12000 bits / 1e8 bps = 120 us.
	got := (100 * Mbps).Serialization(1500)
	if got != 120*time.Microsecond {
		t.Errorf("Serialization = %v, want 120us", got)
	}
	// 1500 bytes at 1 Gbps = 12 us.
	if got := (1 * Gbps).Serialization(1500); got != 12*time.Microsecond {
		t.Errorf("Serialization = %v, want 12us", got)
	}
}

func TestSerializationZeroBandwidth(t *testing.T) {
	if got := Bandwidth(0).Serialization(1500); got != 0 {
		t.Errorf("zero-bandwidth serialization = %v, want 0", got)
	}
}

func TestThroughput(t *testing.T) {
	// 125 MB in 10 s = 100 Mbps.
	got := Throughput(125*MB, 10*time.Second)
	if got != 100*Mbps {
		t.Errorf("Throughput = %v, want 100Mbps", got)
	}
	if got := Throughput(1*MB, 0); got != 0 {
		t.Errorf("Throughput over zero duration = %v, want 0", got)
	}
}

func TestThroughputSerializationRoundTrip(t *testing.T) {
	// Property: sending n bytes takes Serialization(n); throughput over that
	// time recovers the bandwidth (within rounding).
	err := quick.Check(func(kb uint16, mbpsRaw uint8) bool {
		n := ByteSize(int64(kb)+1) * KB
		rate := Bandwidth(int64(mbpsRaw)+1) * Mbps
		d := rate.Serialization(n)
		got := Throughput(n, d)
		ratio := float64(got) / float64(rate)
		return ratio > 0.99 && ratio < 1.01
	}, nil)
	if err != nil {
		t.Error(err)
	}
}
