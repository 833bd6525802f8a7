package trace

import (
	"testing"
	"time"

	"rsstcp/internal/sim"
)

func TestRecorderReset(t *testing.T) {
	eng := sim.NewEngine()
	rec := NewRecorder(eng)
	v := 0.0
	rec.Gauge("g", func() float64 { return v })
	rec.Sample(10 * time.Millisecond)
	eng.RunUntil(sim.At(50 * time.Millisecond))
	if rec.Series("g").Len() == 0 {
		t.Fatal("no samples before reset")
	}
	capBefore := cap(rec.Series("g").Points)

	eng.Reset()
	rec.Reset()
	// Retired, not merely emptied: the previous run's series must be
	// invisible until (unless) the rebuilt scenario re-registers them.
	if rec.Lookup("g") != nil {
		t.Error("reset recorder still reports the previous run's series")
	}
	if got := len(rec.Names()); got != 0 {
		t.Errorf("reset recorder lists %d series, want 0", got)
	}
	if got := rec.Series("g").Len(); got != 0 {
		t.Fatalf("series holds %d points after reset", got)
	}
	if got := cap(rec.Series("g").Points); got != capBefore {
		t.Errorf("reset dropped the revived series' capacity (%d -> %d)", capBefore, got)
	}

	// Gauges were dropped: re-registering (the rebuild path) samples into
	// the same, reused series.
	rec.Gauge("g", func() float64 { return v })
	rec.Sample(10 * time.Millisecond)
	eng.RunUntil(sim.At(30 * time.Millisecond))
	if got := rec.Series("g").Len(); got != 3 {
		t.Fatalf("samples after reset = %d, want 3", got)
	}
}

func TestDisabledRecorder(t *testing.T) {
	eng := sim.NewEngine()
	rec := NewRecorder(eng)
	rec.SetEnabled(false)
	if rec.Enabled() {
		t.Fatal("recorder reports enabled after SetEnabled(false)")
	}

	rec.Gauge("g", func() float64 { return 1 })
	rec.Sample(10 * time.Millisecond)
	before := eng.Pending()
	if before != 0 {
		t.Fatalf("disabled Sample armed %d calendar events", before)
	}

	if s := rec.Lookup("g"); s != nil {
		t.Error("disabled gauge created a series")
	}
}

func TestLookupDoesNotCreate(t *testing.T) {
	rec := NewRecorder(sim.NewEngine())
	if rec.Lookup("nope") != nil {
		t.Fatal("Lookup invented a series")
	}
	rec.Series("yes")
	if rec.Lookup("yes") == nil {
		t.Fatal("Lookup missed an existing series")
	}
	if got := len(rec.Names()); got != 1 {
		t.Fatalf("names = %d, want 1 (Lookup must not register)", got)
	}
}
