package experiment

import (
	"fmt"
	"time"

	"rsstcp/internal/pid"
	"rsstcp/internal/sim"
	"rsstcp/internal/zntune"
)

// TunePlant adapts a path into a zntune.Plant: each probe runs a
// proportional-only restricted-slow-start flow with full control authority
// (shrink enabled) and stall-wait actuation, and returns the sampled IFQ
// occupancy. This is the closed loop of paper Section 3 under "proportional
// control alone". Probes run traceless: OnTick is the only reader.
func TunePlant(path PathConfig, duration time.Duration) zntune.PlantFunc {
	return func(kp float64) ([]float64, []float64) {
		s, err := Build(Config{
			Path:      path,
			Duration:  duration,
			Traceless: true,
			Flows: []FlowSpec{{
				Alg:         AlgRestricted,
				Gains:       pid.Gains{Kp: kp},
				AllowShrink: true,
				StallWait:   true,
			}},
		})
		if err != nil {
			// Tune validated the path: a failure here is a bug.
			panic(err)
		}
		var ts, pv []float64
		s.Flows[0].RSS.OnTick = func(occ float64, _ float64, _ int64) {
			ts = append(ts, s.Eng.Now().Seconds())
			pv = append(pv, occ)
		}
		s.Eng.RunUntil(sim.At(duration))
		return ts, pv
	}
}

// TuneOptions returns zntune search options suited to the IFQ loop: the
// process variable is packets in [0, txqueuelen], so prominence is a few
// packets.
func TuneOptions() zntune.Options {
	// Controller output is a rate (segments/second), so gains are ~1/tick
	// larger than per-tick formulations.
	return zntune.Options{
		KpStart:       4,
		KpMax:         20000,
		Factor:        1.6,
		Refine:        5,
		MinProminence: 5,
		DecayTol:      0.3,
	}
}

// Tune runs the Ziegler-Nichols procedure on the path, each probe lasting
// duration (zero means 30 s), and derives gains with the given rule
// (pid.RulePaper for the paper's constants).
func Tune(path PathConfig, duration time.Duration, rule pid.Rule) (zntune.Result, pid.Gains, error) {
	if duration < 0 {
		return zntune.Result{}, pid.Gains{}, fmt.Errorf("experiment: negative probe duration %v", duration)
	}
	if err := (&Config{Path: path}).Validate(); err != nil {
		return zntune.Result{}, pid.Gains{}, err
	}
	if duration == 0 {
		duration = 30 * time.Second
	}
	res, err := zntune.Tune(TunePlant(path, duration), TuneOptions())
	if err != nil {
		return res, pid.Gains{}, err
	}
	return res, res.Gains(rule), nil
}
