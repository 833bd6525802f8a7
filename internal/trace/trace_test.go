package trace

import (
	"strings"
	"testing"
	"time"

	"rsstcp/internal/sim"
)

func TestSeriesAddAndLast(t *testing.T) {
	var s Series
	s.Add(sim.At(time.Second), 1)
	s.Add(sim.At(2*time.Second), 5)
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	if got := s.Points[1]; got.V != 5 || got.T != sim.At(2*time.Second) {
		t.Errorf("last point = %+v, want {2s 5}", got)
	}
}

// TestSeriesLastEmpty: an empty series (a traced flow that never stalled)
// reads 0 at every instant, which is what WriteCSV prints for it.
func TestSeriesLastEmpty(t *testing.T) {
	var s Series
	if got := s.At(sim.At(time.Hour)); s.Len() != 0 || got != 0 {
		t.Errorf("empty series: Len %d, At %v; want 0, 0", s.Len(), got)
	}
}

func TestSeriesAtStepInterpolation(t *testing.T) {
	var s Series
	s.Add(sim.At(1*time.Second), 10)
	s.Add(sim.At(3*time.Second), 30)
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{500 * time.Millisecond, 0}, // before first point
		{1 * time.Second, 10},
		{2 * time.Second, 10},
		{3 * time.Second, 30},
		{9 * time.Second, 30},
	}
	for _, c := range cases {
		if got := s.At(sim.At(c.at)); got != c.want {
			t.Errorf("At(%v) = %v, want %v", c.at, got, c.want)
		}
	}
}

func TestRecorderRecordAndNames(t *testing.T) {
	eng := sim.NewEngine()
	rec := NewRecorder(eng)
	rec.Series("b").Add(0, 1)
	rec.Series("a").Add(0, 2)
	rec.Series("b").Add(0, 3)
	var sb strings.Builder
	if err := rec.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if header, _, _ := strings.Cut(sb.String(), "\n"); header != "seconds,b,a" {
		t.Errorf("header = %q, want seconds,b,a (creation order)", header)
	}
	if rec.Series("b").Len() != 2 {
		t.Errorf("series b has %d points, want 2", rec.Series("b").Len())
	}
}

func TestRecorderGaugeSampling(t *testing.T) {
	eng := sim.NewEngine()
	rec := NewRecorder(eng)
	v := 0.0
	rec.Gauge("g", func() float64 { v += 1; return v })
	rec.Sample(10 * time.Millisecond)
	eng.RunUntil(sim.At(35 * time.Millisecond))
	if got := rec.Series("g").Len(); got != 3 {
		t.Errorf("sampled %d points, want 3", got)
	}
	rec.StopSampling()
	eng.RunUntil(sim.At(100 * time.Millisecond))
	if got := rec.Series("g").Len(); got != 3 {
		t.Errorf("sampling continued after stop: %d points", got)
	}
}

func TestWriteCSVAlignsSeries(t *testing.T) {
	eng := sim.NewEngine()
	rec := NewRecorder(eng)
	eng.Schedule(sim.At(1*time.Second), func() { rec.Series("x").Add(eng.Now(), 1) })
	eng.Schedule(sim.At(2*time.Second), func() { rec.Series("y").Add(eng.Now(), 9) })
	eng.Run()
	var sb strings.Builder
	if err := rec.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want 3 (header + 2 rows):\n%s", len(lines), sb.String())
	}
	if lines[0] != "seconds,x,y" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "1.000000,1,0" {
		t.Errorf("row1 = %q, want %q", lines[1], "1.000000,1,0")
	}
	if lines[2] != "2.000000,1,9" {
		t.Errorf("row2 = %q, want %q", lines[2], "2.000000,1,9")
	}
}
