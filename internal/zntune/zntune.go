// Package zntune automates the Ziegler-Nichols closed-loop tuning method
// the paper prescribes (Section 3):
//
//  1. select proportional control alone;
//  2. increase the gain until the point of instability — sustained
//     oscillation — is reached; that gain is the critical gain Kc;
//  3. measure the oscillation period to obtain the critical time
//     constant Tc.
//
// The PID parameters then follow from a gain rule (pid.PaperGains for the
// paper's constants). The plant here is the whole closed loop "cwnd growth
// → IFQ occupancy" of a simulated connection; the experiment harness
// provides the Plant adapter.
package zntune

import (
	"fmt"
	"time"

	"rsstcp/internal/pid"
	"rsstcp/internal/stats"
)

// Plant runs one proportional-only closed-loop experiment at gain kp and
// returns the sampled process-variable trajectory (time in seconds, value
// in the controller's units). Each call must be an independent run.
type Plant interface {
	RunP(kp float64) (t, pv []float64)
}

// PlantFunc adapts a function to Plant.
type PlantFunc func(kp float64) (t, pv []float64)

// RunP invokes the function.
func (f PlantFunc) RunP(kp float64) (t, pv []float64) { return f(kp) }

// Options tunes the search.
type Options struct {
	// KpStart is the first gain tried (default 0.01).
	KpStart float64
	// KpMax aborts the sweep (default 1000).
	KpMax float64
	// Factor is the geometric sweep multiplier (default 1.5).
	Factor float64
	// Refine is the number of bisection steps once the critical gain is
	// bracketed (default 5).
	Refine int
	// MinProminence filters oscillation ripple, in process-variable
	// units (default 1.0).
	MinProminence float64
	// DecayTol is the tolerated deviation of the peak decay ratio from 1
	// for "sustained" (default 0.3).
	DecayTol float64
}

// settleFraction of each trajectory is discarded as transient.
const settleFraction = 0.25

func (o Options) withDefaults() Options {
	if o.KpStart <= 0 {
		o.KpStart = 0.01
	}
	if o.KpMax <= 0 {
		o.KpMax = 1000
	}
	if o.Factor <= 1 {
		o.Factor = 1.5
	}
	if o.Refine <= 0 {
		o.Refine = 5
	}
	if o.MinProminence <= 0 {
		o.MinProminence = 1.0
	}
	if o.DecayTol <= 0 {
		o.DecayTol = 0.3
	}
	return o
}

// Trial records one gain probe.
type Trial struct {
	Kp        float64
	Osc       stats.Oscillation
	AtOrAbove bool // oscillation sustained (or growing) at this gain
}

// Result is the tuning outcome.
type Result struct {
	// Critical is the measured ultimate gain and period.
	Critical pid.Critical
	// Trials lists every probe in the order performed.
	Trials []Trial
}

// Gains applies a tuning rule to the measured critical point.
func (r Result) Gains(rule pid.Rule) pid.Gains { return rule.Apply(r.Critical) }

// Tune sweeps the proportional gain geometrically until the loop sustains
// oscillation, then bisects to sharpen the critical gain, and reports Kc
// and Tc.
func Tune(plant Plant, opt Options) (Result, error) {
	opt = opt.withDefaults()
	var res Result

	probe := func(kp float64) Trial {
		t, pv := plant.RunP(kp)
		t, pv = discardTransient(t, pv, settleFraction)
		osc := stats.AnalyzeOscillation(t, pv, opt.MinProminence, opt.DecayTol)
		tr := Trial{
			Kp:        kp,
			Osc:       osc,
			AtOrAbove: osc.Cycles >= 3 && osc.DecayRatio >= 1-opt.DecayTol,
		}
		res.Trials = append(res.Trials, tr)
		return tr
	}

	// Geometric sweep for a bracket [lo, hi] with lo below critical and
	// hi at/above.
	lo := 0.0
	var hi float64
	var hiTrial Trial
	found := false
	for kp := opt.KpStart; kp <= opt.KpMax; kp *= opt.Factor {
		tr := probe(kp)
		if tr.AtOrAbove {
			hi, hiTrial, found = kp, tr, true
			break
		}
		lo = kp
	}
	if !found {
		return res, fmt.Errorf("zntune: no sustained oscillation up to Kp=%g", opt.KpMax)
	}

	// Bisection sharpens the smallest sustaining gain.
	for i := 0; i < opt.Refine && lo > 0; i++ {
		mid := (lo + hi) / 2
		tr := probe(mid)
		if tr.AtOrAbove {
			hi, hiTrial = mid, tr
		} else {
			lo = mid
		}
	}

	res.Critical = pid.Critical{
		Kc: hi,
		Tc: time.Duration(hiTrial.Osc.Period * float64(time.Second)),
	}
	if res.Critical.Tc <= 0 {
		return res, fmt.Errorf("zntune: degenerate oscillation period at Kc=%g", hi)
	}
	return res, nil
}

func discardTransient(t, pv []float64, frac float64) ([]float64, []float64) {
	skip := int(float64(len(t)) * frac)
	if skip >= len(t) {
		return nil, nil
	}
	return t[skip:], pv[skip:]
}
