package zntune

import (
	"math"
	"testing"
	"time"

	"rsstcp/internal/pid"
)

// delayedIntegrator simulates the canonical plant G(s) = e^{-Ls}/s under
// proportional-only control. Its theoretical ultimate gain is
// Kc = pi/(2L) and the oscillation period at Kc is Tc = 4L.
type delayedIntegrator struct {
	L        float64 // dead time, seconds
	dt       float64 // step, seconds
	duration float64 // run length, seconds
	setpoint float64
}

func (p *delayedIntegrator) RunP(kp float64) ([]float64, []float64) {
	steps := int(p.duration / p.dt)
	delay := int(p.L / p.dt)
	uhist := make([]float64, steps)
	t := make([]float64, 0, steps)
	pv := make([]float64, 0, steps)
	y := 0.0
	for i := 0; i < steps; i++ {
		e := p.setpoint - y
		uhist[i] = kp * e
		var u float64
		if i >= delay {
			u = uhist[i-delay]
		}
		y += u * p.dt
		t = append(t, float64(i)*p.dt)
		pv = append(pv, y)
	}
	return t, pv
}

func TestTuneFindsTheoreticalCriticalPoint(t *testing.T) {
	plant := &delayedIntegrator{L: 0.1, dt: 0.001, duration: 60, setpoint: 10}
	res, err := Tune(plant, options(func(o *Options) { o.KpStart, o.MinProminence = 0.5, 0.2 }))
	if err != nil {
		t.Fatal(err)
	}
	wantKc := math.Pi / (2 * plant.L) // ~15.7
	if res.Critical.Kc < 0.7*wantKc || res.Critical.Kc > 1.3*wantKc {
		t.Errorf("Kc = %v, want ~%v", res.Critical.Kc, wantKc)
	}
	wantTc := time.Duration(4 * plant.L * float64(time.Second)) // 400ms
	ratio := float64(res.Critical.Tc) / float64(wantTc)
	if ratio < 0.7 || ratio > 1.3 {
		t.Errorf("Tc = %v, want ~%v", res.Critical.Tc, wantTc)
	}
	if len(res.Trials) < 3 {
		t.Errorf("only %d trials recorded", len(res.Trials))
	}
}

func TestTuneGainsRules(t *testing.T) {
	plant := &delayedIntegrator{L: 0.05, dt: 0.001, duration: 30, setpoint: 10}
	res, err := Tune(plant, options(func(o *Options) { o.KpStart, o.MinProminence = 1, 0.2 }))
	if err != nil {
		t.Fatal(err)
	}
	paper := res.Gains(pid.RulePaper)
	classic := res.Gains(pid.RuleClassic)
	if paper.Kp >= classic.Kp {
		t.Errorf("paper Kp %v should be below classic %v (0.33 vs 0.6 Kc)", paper.Kp, classic.Kp)
	}
	if paper.Ti != classic.Ti {
		t.Errorf("Ti differs: paper %v classic %v (both 0.5 Tc)", paper.Ti, classic.Ti)
	}
	if paper.Td <= classic.Td {
		t.Errorf("paper Td %v should exceed classic %v (0.33 vs 0.125 Tc)", paper.Td, classic.Td)
	}
}

func TestTuneErrorsWhenNothingOscillates(t *testing.T) {
	// A pure first-order lag never sustains oscillation under P control.
	stable := PlantFunc(func(kp float64) ([]float64, []float64) {
		dt := 0.001
		y := 0.0
		var ts, pv []float64
		for i := 0; i < 20000; i++ {
			u := kp * (10 - y)
			y += (u - y) * dt / 0.1
			ts = append(ts, float64(i)*dt)
			pv = append(pv, y)
		}
		return ts, pv
	})
	if _, err := Tune(stable, options(func(o *Options) { o.KpMax = 50 })); err == nil {
		t.Error("Tune succeeded on a plant that cannot oscillate")
	}
}

func TestTuneBisectionTightensBracket(t *testing.T) {
	plant := &delayedIntegrator{L: 0.1, dt: 0.001, duration: 40, setpoint: 10}
	coarse, err := Tune(plant, options(func(o *Options) { o.KpStart, o.Factor, o.Refine, o.MinProminence = 0.5, 4, 1, 0.2 }))
	if err != nil {
		t.Fatal(err)
	}
	fine, err := Tune(plant, options(func(o *Options) { o.KpStart, o.Factor, o.Refine, o.MinProminence = 0.5, 4, 8, 0.2 }))
	if err != nil {
		t.Fatal(err)
	}
	wantKc := math.Pi / (2 * plant.L)
	if math.Abs(fine.Critical.Kc-wantKc) > math.Abs(coarse.Critical.Kc-wantKc)+1 {
		t.Errorf("refined Kc %v worse than coarse %v (want near %v)",
			fine.Critical.Kc, coarse.Critical.Kc, wantKc)
	}
}

func TestTrialsRecordSweepShape(t *testing.T) {
	plant := &delayedIntegrator{L: 0.1, dt: 0.001, duration: 30, setpoint: 10}
	res, err := Tune(plant, options(func(o *Options) { o.KpStart, o.MinProminence = 0.5, 0.2 }))
	if err != nil {
		t.Fatal(err)
	}
	// The first trial must be below critical and the last probe of the
	// geometric phase at/above.
	if res.Trials[0].AtOrAbove {
		t.Error("first probe already at critical gain; KpStart too high for the test")
	}
	sawAbove := false
	for _, tr := range res.Trials {
		if tr.AtOrAbove {
			sawAbove = true
		}
	}
	if !sawAbove {
		t.Error("no trial marked at/above critical")
	}
}

// TestTuneRefusesUnusableOptions: Tune has no defaults of its own, so a
// field it cannot use — zero included — is one line naming it, before the
// first probe. A zero used to run a second set of defaults.
func TestTuneRefusesUnusableOptions(t *testing.T) {
	never := PlantFunc(func(float64) ([]float64, []float64) {
		t.Fatal("Tune probed the plant")
		return nil, nil
	})
	for _, row := range []struct {
		edit func(*Options)
		want string
	}{
		{func(o *Options) { o.KpStart = 0 }, "zntune: KpStart 0 is not positive"},
		{func(o *Options) { o.KpStart = math.NaN() }, "zntune: KpStart NaN is not positive"},
		{func(o *Options) { o.KpMax = 0.01 }, "zntune: KpMax 0.01 is not finite and above KpStart 0.01"},
		{func(o *Options) { o.KpMax = math.Inf(1) }, "zntune: KpMax +Inf is not finite and above KpStart 0.01"},
		{func(o *Options) { o.Factor = 1 }, "zntune: Factor 1 is not above 1"},
		{func(o *Options) { o.Refine = 0 }, "zntune: Refine 0 is not positive"},
		{func(o *Options) { o.MinProminence = -1 }, "zntune: MinProminence -1 is not positive"},
		{func(o *Options) { o.DecayTol = 0 }, "zntune: DecayTol 0 is not positive"},
	} {
		if _, err := Tune(never, options(row.edit)); err == nil || err.Error() != row.want {
			t.Errorf("Tune = %v, want %q", err, row.want)
		}
	}
}

// options are full search options, the values a plant here tunes with
// unless edit changes them.
func options(edit func(*Options)) Options {
	o := Options{KpStart: 0.01, KpMax: 1000, Factor: 1.5, Refine: 5, MinProminence: 1, DecayTol: 0.3}
	edit(&o)
	return o
}

func TestDiscardTransient(t *testing.T) {
	ts := []float64{0, 1, 2, 3}
	pv := []float64{9, 9, 9, 9}
	t2, p2 := discardTransient(ts, pv, 0.5)
	if len(t2) != 2 || t2[0] != 2 || len(p2) != 2 {
		t.Errorf("discardTransient = %v/%v", t2, p2)
	}
	t3, _ := discardTransient(ts, pv, 0.99)
	if len(t3) != 1 {
		t.Errorf("extreme fraction left %d points", len(t3))
	}
}
