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
	"math"
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

// Options tunes the search. Tune has no defaults: it refuses a field it
// cannot use. experiment.TuneOptions holds the IFQ loop's values.
type Options struct {
	// KpStart is the first gain tried.
	KpStart float64
	// KpMax aborts the sweep; it must exceed KpStart.
	KpMax float64
	// Factor is the geometric sweep multiplier, above 1.
	Factor float64
	// Refine is the number of bisection steps once the critical gain is
	// bracketed.
	Refine int
	// MinProminence filters oscillation ripple, in process-variable
	// units.
	MinProminence float64
	// DecayTol is the tolerated deviation of the peak decay ratio from 1
	// for "sustained".
	DecayTol float64
}

// settleFraction of each trajectory is discarded as transient.
const settleFraction = 0.25

// check returns the first field Tune cannot use, as one line naming it.
func (o Options) check() error {
	switch {
	case !(o.KpStart > 0): // NaN too
		return fmt.Errorf("zntune: KpStart %g is not positive", o.KpStart)
	case !(o.KpMax > o.KpStart) || math.IsInf(o.KpMax, 1): // an endless sweep
		return fmt.Errorf("zntune: KpMax %g is not finite and above KpStart %g", o.KpMax, o.KpStart)
	case !(o.Factor > 1):
		return fmt.Errorf("zntune: Factor %g is not above 1", o.Factor)
	case o.Refine <= 0:
		return fmt.Errorf("zntune: Refine %d is not positive", o.Refine)
	case !(o.MinProminence > 0):
		return fmt.Errorf("zntune: MinProminence %g is not positive", o.MinProminence)
	case !(o.DecayTol > 0):
		return fmt.Errorf("zntune: DecayTol %g is not positive", o.DecayTol)
	}
	return nil
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
// and Tc. Options it cannot use are its error before the first probe.
func Tune(plant Plant, opt Options) (Result, error) {
	var res Result
	if err := opt.check(); err != nil {
		return res, err
	}

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
