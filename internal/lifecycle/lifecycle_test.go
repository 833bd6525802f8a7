package lifecycle

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"rsstcp/internal/sim"
)

func TestStreamSeedIndependence(t *testing.T) {
	if StreamSeed(1, SaltArrivals) == StreamSeed(1, SaltSizes) {
		t.Fatal("salts must derive distinct streams")
	}
	if StreamSeed(1, SaltArrivals) == StreamSeed(2, SaltArrivals) {
		t.Fatal("seeds must derive distinct streams")
	}
	if StreamSeed(7, SaltSizes) != StreamSeed(7, SaltSizes) {
		t.Fatal("derivation must be deterministic")
	}
}

func TestParseSize(t *testing.T) {
	cases := map[string]float64{
		"1000": 1000, "64k": 64e3, "1.5M": 1.5e6, "2G": 2e9, "10K": 10e3,
	}
	for in, want := range cases {
		got, err := parseSize(in)
		if err != nil || got != want {
			t.Errorf("parseSize(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"x12", "NaN", "Inf", "-Inf", "infk", "1e308G", "1e19"} {
		if _, err := parseSize(bad); err == nil {
			t.Errorf("parseSize(%q) should fail", bad)
		}
	}
}

func TestSizeDistMeans(t *testing.T) {
	dists := []SizeDist{
		Fixed{Bytes: 64000},
		Exponential{MeanBytes: 100e3},
		BoundedPareto{Alpha: 1.3, Min: 10e3, Max: 10e6},
		BoundedPareto{Alpha: 1, Min: 10e3, Max: 10e6},
		Lognormal{Median: 100e3, Sigma: 1},
	}
	for _, d := range dists {
		rng := sim.NewRNG(42)
		const n = 200000
		var sum float64
		for i := 0; i < n; i++ {
			s := d.Sample(rng)
			if s < 1 {
				t.Fatalf("%+v: sample %d < 1 byte", d, s)
			}
			sum += float64(s)
		}
		got := sum / n
		want := d.Mean()
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("%+v: empirical mean %.0f vs analytic %.0f", d, got, want)
		}
	}
}

func TestBoundedParetoBounds(t *testing.T) {
	d := BoundedPareto{Alpha: 1.3, Min: 10e3, Max: 10e6}
	rng := sim.NewRNG(7)
	for i := 0; i < 100000; i++ {
		s := d.Sample(rng)
		if float64(s) < d.Min || float64(s) > d.Max {
			t.Fatalf("sample %d outside [%v, %v]", s, d.Min, d.Max)
		}
	}
}

func TestParseSizeDistRoundTrip(t *testing.T) {
	for spec, want := range map[string]SizeDist{
		"fixed:64k":          Fixed{Bytes: 64000},
		"exp:100k":           Exponential{MeanBytes: 100e3},
		"pareto:1.3:10k:10M": BoundedPareto{Alpha: 1.3, Min: 10e3, Max: 10e6},
		"lognorm:100k:1.5":   Lognormal{Median: 100e3, Sigma: 1.5},
	} {
		d, err := ParseSizeDist(spec)
		if err != nil {
			t.Fatalf("ParseSizeDist(%q): %v", spec, err)
		}
		if d != want {
			t.Errorf("ParseSizeDist(%q) = %+v, want %+v", spec, d, want)
		}
	}
	for _, bad := range []string{
		"", "zipf:2", "fixed", "fixed:0", "exp:-1", "pareto:1.3:10k",
		"pareto:0:1:2", "pareto:1.3:10M:10k", "lognorm:100k:-1",
		"fixed:Inf", "fixed:NaN", "exp:NaN", "exp:Inf", "pareto:NaN:1k:1M",
		"pareto:Inf:1k:1M", "pareto:1.3:1k:Inf", "pareto:1.3:NaN:1M",
		"lognorm:NaN:1", "lognorm:100k:NaN", "lognorm:100k:Inf",
	} {
		if _, err := ParseSizeDist(bad); err == nil {
			t.Errorf("ParseSizeDist(%q) should fail", bad)
		}
	}
}

func TestParseSourceRoundTrip(t *testing.T) {
	for spec, want := range map[string]FlowSource{
		"poisson:100":       NewPoisson(100),
		"mmpp:20:200:500ms": NewMMPP(20, 200, 500*time.Millisecond),
		"web:5:8:2s":        NewWebSession(5, 8, 2*time.Second),
	} {
		s, err := ParseSource(spec)
		if err != nil {
			t.Fatalf("ParseSource(%q): %v", spec, err)
		}
		if !reflect.DeepEqual(s, want) {
			t.Errorf("ParseSource(%q) = %+v, want %+v", spec, s, want)
		}
	}
	for _, bad := range []string{
		"", "uniform:3", "poisson", "poisson:0", "mmpp:20:200",
		"mmpp:0:1:1s", "mmpp:1:1:0s", "web:5:0:1s", "web:5:8:junk", "legacy:4",
		"poisson:NaN", "poisson:Inf", "poisson:-Inf", "mmpp:NaN:200:1s",
		"mmpp:20:Inf:1s", "web:NaN:8:2s", "web:Inf:8:2s",
		"poisson:1e10", "poisson:1000000001", "mmpp:1:1e10:1s", "mmpp:1e12:1:1s", "web:1e10:8:2s",
	} {
		if _, err := ParseSource(bad); err == nil {
			t.Errorf("ParseSource(%q) should fail", bad)
		}
	}
	// A rate finer than the calendar is refused with the reason, and the
	// boundary itself is a legal rate.
	if _, err := ParseSource("poisson:1e10"); err == nil || !strings.Contains(err.Error(), "1 ns resolution") {
		t.Errorf("poisson:1e10: error %v does not name the 1 ns resolution", err)
	}
	if _, err := ParseSource("poisson:1e9"); err != nil {
		t.Errorf("poisson:1e9 refused: %v", err)
	}
}

// runSource counts launches over a simulated window.
func runSource(src FlowSource, seed uint64, window time.Duration) int {
	eng := sim.NewEngine()
	n := 0
	src.Start(eng, sim.NewRNG(seed), func() { n++ })
	eng.RunUntil(sim.At(window))
	src.Stop()
	return n
}

func TestPoissonRate(t *testing.T) {
	n := runSource(NewPoisson(200), 1, 100*time.Second)
	if want := 200 * 100; math.Abs(float64(n-want))/float64(want) > 0.05 {
		t.Errorf("got %d arrivals, want ~%d", n, want)
	}
}

func TestMMPPRate(t *testing.T) {
	src := NewMMPP(20, 200, 500*time.Millisecond)
	if src.Rate() != 110 {
		t.Fatalf("Rate() = %v, want 110", src.Rate())
	}
	n := runSource(src, 1, 200*time.Second)
	if want := 110 * 200; math.Abs(float64(n-want))/float64(want) > 0.10 {
		t.Errorf("got %d arrivals, want ~%d", n, want)
	}
}

func TestWebSessionRate(t *testing.T) {
	src := NewWebSession(5, 8, 2*time.Second)
	if src.Rate() != 40 {
		t.Fatalf("Rate() = %v, want 40", src.Rate())
	}
	n := runSource(src, 1, 200*time.Second)
	// The tail of the window holds sessions mid-chain, so expect slightly
	// under the long-run rate.
	if want := 40 * 200; math.Abs(float64(n-want))/float64(want) > 0.10 {
		t.Errorf("got %d arrivals, want ~%d", n, want)
	}
}

func TestWithRate(t *testing.T) {
	for _, src := range []FlowSource{
		NewPoisson(100),
		NewMMPP(20, 200, 500*time.Millisecond),
		NewWebSession(5, 8, 2*time.Second),
	} {
		scaled := src.WithRate(55)
		if math.Abs(scaled.Rate()-55) > 1e-9 {
			t.Errorf("%+v: WithRate(55).Rate() = %v", src, scaled.Rate())
		}
	}
}

// TestStopLeavesCleanCalendar pins the teardown invariant: a stopped
// source cancels every pending entry it owns, and the pool accounts for
// all of them.
func TestStopLeavesCleanCalendar(t *testing.T) {
	sources := []FlowSource{
		NewPoisson(100),
		NewMMPP(20, 200, 500*time.Millisecond),
		NewWebSession(5, 8, 2*time.Second),
	}
	for _, src := range sources {
		eng := sim.NewEngine()
		src.Start(eng, sim.NewRNG(3), func() {})
		eng.RunUntil(sim.At(5 * time.Second))
		src.Stop()
		if got := eng.Pending(); got != 0 {
			t.Errorf("%T: %d calendar entries survive Stop", src, got)
		}
		if got := eng.Leaked(); got != 0 {
			t.Errorf("%T: %d pool entries leaked after Stop", src, got)
		}
	}
}

// TestSourceDeterminism pins that arrival times are a pure function of
// (config, seed).
func TestSourceDeterminism(t *testing.T) {
	trace := func() []sim.Time {
		eng := sim.NewEngine()
		src := NewMMPP(20, 200, 500*time.Millisecond)
		var ts []sim.Time
		src.Start(eng, sim.NewRNG(9), func() { ts = append(ts, eng.Now()) })
		eng.RunUntil(sim.At(10 * time.Second))
		src.Stop()
		return ts
	}
	a, b := trace(), trace()
	if len(a) != len(b) {
		t.Fatalf("arrival counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}
