package stats

import (
	"math"
	"reflect"
	"testing"
)

// synth generates a deterministic, unsorted, duplicate-bearing sample.
func synth(n int) []float64 {
	xs := make([]float64, n)
	state := uint64(0x9e3779b97f4a7c15)
	for i := range xs {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		xs[i] = float64(state%10000)/100 - 50
	}
	return xs
}

func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func summariesBitEqual(a, b Summary) bool {
	return a.N == b.N && bitsEqual(a.Mean, b.Mean) && bitsEqual(a.Std, b.Std) &&
		bitsEqual(a.Min, b.Min) && bitsEqual(a.Max, b.Max) &&
		bitsEqual(a.P50, b.P50) && bitsEqual(a.P90, b.P90)
}

// TestAccumulatorMatchesDescribeBitForBit is the streaming-aggregation
// contract: in the exact regime, folding observations one at a time must
// reproduce batch Describe exactly — same bits, including the NaN moments
// of an empty batch.
func TestAccumulatorMatchesDescribeBitForBit(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 5, 17, 100, 1000} {
		xs := synth(n)
		var a Accumulator
		for _, x := range xs {
			a.Add(x)
		}
		got, want := a.Summary(), Describe(xs)
		if !summariesBitEqual(got, want) {
			t.Errorf("n=%d: streaming summary %+v != batch %+v", n, got, want)
		}
		if a.approx {
			t.Errorf("n=%d: accumulator left the exact regime below the cap", n)
		}
	}
}

func TestAccumulatorWithNaNMatchesDescribe(t *testing.T) {
	xs := []float64{3, math.NaN(), 1, 2}
	var a Accumulator
	for _, x := range xs {
		a.Add(x)
	}
	got, want := a.Summary(), Describe(xs)
	if !summariesBitEqual(got, want) {
		t.Errorf("NaN-bearing stream: %+v != %+v", got, want)
	}
}

// TestAccumulatorOverflowKeepsMomentsExact: past MaxExact the moments must
// still match Describe bit for bit while the quantiles become estimates
// that stay within the sample's range and near the true value.
func TestAccumulatorOverflowKeepsMomentsExact(t *testing.T) {
	xs := synth(5000)
	a := Accumulator{MaxExact: 64}
	for _, x := range xs {
		a.Add(x)
	}
	if !a.approx {
		t.Fatal("accumulator did not overflow past MaxExact")
	}
	got, want := a.Summary(), Describe(xs)
	if got.N != want.N || !bitsEqual(got.Mean, want.Mean) || !bitsEqual(got.Std, want.Std) ||
		!bitsEqual(got.Min, want.Min) || !bitsEqual(got.Max, want.Max) {
		t.Errorf("overflowed moments diverged: %+v != %+v", got, want)
	}
	// P² tolerance: the sample spans ~100 units; a few percent is the
	// algorithm's documented accuracy regime for smooth samples.
	if d := math.Abs(got.P50 - want.P50); d > 3 {
		t.Errorf("P50 estimate %v vs exact %v (|d|=%v)", got.P50, want.P50, d)
	}
	if d := math.Abs(got.P90 - want.P90); d > 3 {
		t.Errorf("P90 estimate %v vs exact %v (|d|=%v)", got.P90, want.P90, d)
	}
}

// TestAccumulatorSummaryInterleaved: summaries and percentiles asked for
// between observations sort a scratch copy, never the buffer, so the state
// keeps insertion order, the overflow replay and every later summary match
// an accumulator that was never asked, and a warm summary allocates nothing.
func TestAccumulatorSummaryInterleaved(t *testing.T) {
	xs := synth(300)
	asked, quiet := Accumulator{MaxExact: 128}, Accumulator{MaxExact: 128}
	for i, x := range xs {
		asked.Add(x)
		quiet.Add(x)
		if i%7 == 0 {
			asked.Summary()
			asked.Percentile(0.99)
		}
		if got, want := asked.State(), quiet.State(); !reflect.DeepEqual(got, want) {
			t.Fatalf("after %d observations the state differs from an unasked accumulator", i+1)
		}
		if got, want := asked.Summary(), quiet.Summary(); !summariesBitEqual(got, want) {
			t.Fatalf("after %d observations: summary %+v, unasked %+v", i+1, got, want)
		}
	}
	var a Accumulator
	for _, x := range synth(640) {
		a.Add(x)
	}
	if allocs := testing.AllocsPerRun(10, func() { a.Summary(); a.Percentile(0.5) }); allocs != 0 {
		t.Errorf("a warm Summary and Percentile allocate %v objects, want 0", allocs)
	}
}

func TestAccumulatorDeterministic(t *testing.T) {
	xs := synth(3000)
	run := func() Summary {
		a := Accumulator{MaxExact: 32}
		for _, x := range xs {
			a.Add(x)
		}
		return a.Summary()
	}
	if s1, s2 := run(), run(); !summariesBitEqual(s1, s2) {
		t.Errorf("same stream produced different summaries: %+v vs %+v", s1, s2)
	}
}

func TestAccumulatorResetReuses(t *testing.T) {
	var a Accumulator
	for _, x := range synth(100) {
		a.Add(x)
	}
	a.Reset()
	if a.N() != 0 {
		t.Fatalf("N after reset = %d", a.N())
	}
	xs := synth(50)
	for _, x := range xs {
		a.Add(x)
	}
	if got, want := a.Summary(), Describe(xs); !summariesBitEqual(got, want) {
		t.Errorf("post-reset summary %+v != batch %+v", got, want)
	}
}

func TestP2AgainstExactQuantiles(t *testing.T) {
	xs := synth(20000)
	for _, p := range []float64{0.5, 0.9} {
		e := NewP2(p)
		for _, x := range xs {
			e.Add(x)
		}
		exact := Percentile(xs, p)
		if d := math.Abs(e.Quantile() - exact); d > 2 {
			t.Errorf("p=%g: P² %v vs exact %v (|d|=%v)", p, e.Quantile(), exact, d)
		}
	}
}

func TestP2SmallSamples(t *testing.T) {
	e := NewP2(0.5)
	if !math.IsNaN(e.Quantile()) {
		t.Error("empty estimator did not return NaN")
	}
	for _, x := range []float64{5, 1, 3} {
		e.Add(x)
	}
	if got := e.Quantile(); got != 3 {
		t.Errorf("3-point median = %v, want 3", got)
	}
}
