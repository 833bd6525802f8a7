package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Errorf("N = %d, want 8", w.N())
	}
	if !almost(w.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", w.Mean())
	}
	// Sample variance of this classic set is 32/7.
	if !almost(w.Var(), 32.0/7.0, 1e-12) {
		t.Errorf("Var = %v, want %v", w.Var(), 32.0/7.0)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", w.Min(), w.Max())
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Var() != 0 || w.Std() != 0 {
		t.Error("empty accumulator should report zero spread")
	}
	w.Add(3)
	if w.Mean() != 3 || w.Var() != 0 {
		t.Errorf("single obs: mean=%v var=%v, want 3/0", w.Mean(), w.Var())
	}
}

func TestWelfordMatchesNaive(t *testing.T) {
	err := quick.Check(func(raw []int8) bool {
		if len(raw) < 2 {
			return true
		}
		var w Welford
		var sum float64
		for _, v := range raw {
			w.Add(float64(v))
			sum += float64(v)
		}
		mean := sum / float64(len(raw))
		var ss float64
		for _, v := range raw {
			d := float64(v) - mean
			ss += d * d
		}
		naive := ss / float64(len(raw)-1)
		return almost(w.Mean(), mean, 1e-9) && almost(w.Var(), naive, 1e-6)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Interpolation between points.
	if got := Percentile([]float64{0, 10}, 0.5); !almost(got, 5, 1e-12) {
		t.Errorf("interpolated median = %v, want 5", got)
	}
}

func TestPercentileEdge(t *testing.T) {
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Error("empty percentile should be NaN")
	}
	xs := []float64{3, 1, 2}
	Percentile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestMean(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Error("empty mean should be NaN")
	}
	if got := Mean([]float64{1, 2, 3}); !almost(got, 2, 1e-12) {
		t.Errorf("Mean = %v, want 2", got)
	}
}

func TestLinearFitExact(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4}
	y := []float64{1, 3, 5, 7, 9} // y = 2x + 1
	slope, intercept := LinearFit(x, y)
	if !almost(slope, 2, 1e-12) || !almost(intercept, 1, 1e-12) {
		t.Errorf("fit = (%v, %v), want (2, 1)", slope, intercept)
	}
}

func TestLinearFitDegenerate(t *testing.T) {
	s, i := LinearFit([]float64{1}, []float64{5})
	if s != 0 || i != 0 {
		t.Error("short input should return zeros")
	}
	// Vertical data: identical x.
	s, i = LinearFit([]float64{2, 2, 2}, []float64{1, 2, 3})
	if s != 0 || !almost(i, 2, 1e-12) {
		t.Errorf("vertical fit = (%v,%v), want (0, mean)", s, i)
	}
}

func TestFindPeaksSine(t *testing.T) {
	var x, y []float64
	for i := 0; i < 1000; i++ {
		xi := float64(i) * 0.01
		x = append(x, xi)
		y = append(y, math.Sin(2*math.Pi*xi)) // period 1, ~10 cycles
	}
	peaks := FindPeaks(x, y, 0.5)
	maxima := 0
	for _, p := range peaks {
		if p.Max {
			maxima++
			if !almost(p.Y, 1, 0.01) {
				t.Errorf("maximum height %v, want ~1", p.Y)
			}
		}
	}
	if maxima < 8 || maxima > 10 {
		t.Errorf("found %d maxima, want ~9-10", maxima)
	}
}

func TestFindPeaksIgnoresRipple(t *testing.T) {
	// Small ripple on a big swing: prominence filter should keep only the
	// large extrema.
	var x, y []float64
	for i := 0; i < 2000; i++ {
		xi := float64(i) * 0.01
		x = append(x, xi)
		y = append(y, 10*math.Sin(2*math.Pi*xi/10)+0.1*math.Sin(2*math.Pi*xi))
	}
	peaks := FindPeaks(x, y, 3)
	if len(peaks) == 0 {
		t.Fatal("no peaks found")
	}
	for _, p := range peaks {
		if p.Max && p.Y < 5 {
			t.Errorf("ripple maximum leaked through: %v", p.Y)
		}
	}
}

func TestFindPeaksFlatAndShort(t *testing.T) {
	if p := FindPeaks([]float64{1, 2}, []float64{1, 1}, 0.1); p != nil {
		t.Error("short input should return nil")
	}
	x := []float64{0, 1, 2, 3, 4}
	flat := []float64{5, 5, 5, 5, 5}
	if p := FindPeaks(x, flat, 0.1); len(p) != 0 {
		t.Errorf("flat signal produced peaks: %v", p)
	}
}

func TestAnalyzeOscillationSustained(t *testing.T) {
	var x, y []float64
	for i := 0; i < 4000; i++ {
		xi := float64(i) * 0.005
		x = append(x, xi)
		y = append(y, 5+2*math.Sin(2*math.Pi*xi/2)) // period 2, steady
	}
	o := AnalyzeOscillation(x, y, 0.5, 0.25)
	if !o.Sustained {
		t.Error("steady sine not detected as sustained")
	}
	if !almost(o.Period, 2, 0.05) {
		t.Errorf("Period = %v, want ~2", o.Period)
	}
	if !almost(o.Amplitude, 2, 0.1) {
		t.Errorf("Amplitude = %v, want ~2", o.Amplitude)
	}
	if !almost(o.DecayRatio, 1, 0.05) {
		t.Errorf("DecayRatio = %v, want ~1", o.DecayRatio)
	}
}

func TestAnalyzeOscillationDecaying(t *testing.T) {
	var x, y []float64
	for i := 0; i < 4000; i++ {
		xi := float64(i) * 0.005
		x = append(x, xi)
		y = append(y, 5+4*math.Exp(-xi/3)*math.Sin(2*math.Pi*xi/2))
	}
	o := AnalyzeOscillation(x, y, 0.2, 0.25)
	if o.Sustained {
		t.Error("decaying oscillation reported as sustained")
	}
	if o.DecayRatio >= 1 {
		t.Errorf("DecayRatio = %v, want < 1", o.DecayRatio)
	}
}

func TestAnalyzeOscillationNonOscillating(t *testing.T) {
	var x, y []float64
	for i := 0; i < 100; i++ {
		x = append(x, float64(i))
		y = append(y, float64(i)*0.5) // ramp
	}
	o := AnalyzeOscillation(x, y, 0.5, 0.25)
	if o.Sustained || o.Cycles != 0 {
		t.Errorf("ramp misclassified: %+v", o)
	}
}
