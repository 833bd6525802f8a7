package main

import (
	"fmt"
	"math"
	"time"

	"rsstcp/internal/experiment"
)

// seedCycle is how many consecutive seeds a run cycles its repetitions
// through, starting at -seed.
const seedCycle = 10

// minTimedReps is the fewest timed repetitions a run reports on, whatever
// the time budget says.
const minTimedReps = 3

// runOpts are one run's knobs.
type runOpts struct {
	Seed    uint64
	Seconds float64 // budget of the repetition loop: warm-up, set-up and timed windows
	Quick   bool    // 1/10 simulated durations, 0.3 s passes
	OutDir  string
}

// passResult is one pass (untraced or traced) over a workload.
type passResult struct {
	Reps      []repSample // timed repetitions that passed their checks
	First     *repResult  // the warm-up repetition: source of the exact counters
	Attempted int
	Failed    int
	Failures  []string
	WarmupS   float64
	GCCycles  uint64 // collections the runtime started by itself during the pass
}

// runPass repeats the workload closed-loop from this one goroutine — the
// next repetition starts when the previous one returns — until the budget
// is spent. The first repetition is the warm-up: it fills the allocator's
// size classes and pages the code in, is checked like any other, and
// supplies the exact counters, but its times are not reported.
func runPass(w workload, o runOpts, h *harness, budget time.Duration) *passResult {
	scale := 1
	minReps := minTimedReps
	if o.Quick {
		// Long enough for the CPU profile to catch the timed windows.
		scale, minReps, budget = 10, 2, 300*time.Millisecond
	}
	book := digestBook{}
	// Preallocated so that appending never allocates between a repetition's
	// two heap readings.
	p := &passResult{Reps: make([]repSample, 0, 2048)}
	_, _, gc0 := h.heap.read()
	forced0 := h.heap.forced
	start := time.Now()
	var longest time.Duration
	for i := 0; ; i++ {
		if i > minReps && time.Since(start)+longest > budget {
			break
		}
		seed := o.Seed + uint64(i%seedCycle)
		if h.tr != nil {
			h.tr.rep = i
		}
		t0 := time.Now()
		sp := h.tr.begin("rep")
		res := h.runRep(w.gen(seed, scale), seed)
		h.tr.end(sp)
		if len(res.Failures) == 0 {
			book.check(res)
		}
		longest = max(longest, time.Since(t0))
		p.Attempted++
		if i == 0 {
			p.First = res
			p.WarmupS = time.Since(t0).Seconds()
		}
		if len(res.Failures) > 0 {
			p.Failed++
			for _, f := range res.Failures {
				p.Failures = append(p.Failures, fmt.Sprintf("rep %d seed %d: %s", i, seed, f))
			}
			continue
		}
		if i > 0 {
			p.Reps = append(p.Reps, res.repSample)
		}
	}
	_, _, gc1 := h.heap.read()
	p.GCCycles = gc1 - gc0 - (h.heap.forced - forced0)
	return p
}

// samples maps each repetition through f.
func samples(reps []repSample, f func(repSample) float64) []float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return xs
}

// held is the live heap the repetition's state holds: what survives a
// forced collection with the scenarios (or the report) still referenced,
// over what survived one before set-up. The harness's own footprint cancels.
func (r repSample) held() float64 { return float64(r.LiveHeap) - float64(r.PreHeap) }

func nsPerEvent(r repSample) float64 {
	return float64(r.Wall.Nanoseconds()) / float64(r.Events)
}

// endToEndValues reduces a pass to the nine end-to-end metrics: each is the
// median over the timed repetitions of that repetition's own figure.
func endToEndValues(p *passResult, gainErr float64) map[string][]float64 {
	const MiB = 1 << 20
	per := func(f func(repSample) float64) []float64 { return samples(p.Reps, f) }
	return map[string][]float64{
		"setup_s":      per(func(r repSample) float64 { return r.Setup.Seconds() }),
		"ns_per_event": per(nsPerEvent),
		"runs_per_sec": per(func(r repSample) float64 { return float64(r.Runs) / r.Wall.Seconds() }),
		"flows_per_sec": per(func(r repSample) float64 {
			return float64(r.Flows) / r.Wall.Seconds()
		}),
		"allocs_per_kevent": per(func(r repSample) float64 {
			return 1000 * float64(r.Allocs) / float64(r.Events)
		}),
		"live_heap_mb":       per(func(r repSample) float64 { return r.held() / MiB }),
		"bytes_per_flow":     per(func(r repSample) float64 { return r.held() / float64(r.Flows) }),
		"paper_gain_err_pct": {gainErr},
		"sim_s_per_wall_s": per(func(r repSample) float64 {
			return r.SimSeconds / r.Wall.Seconds()
		}),
	}
}

// paperGain is the paper's headline: restricted over standard goodput.
const paperGain = 1.40

// paperGainErr runs the paper's comparison — one standard and one
// restricted flow on PaperPath() — and returns the reproduction's distance
// from the paper's 1.40× in percent. It is a simulated statistic: it moves
// only when the model's behaviour does, never with the machine.
func paperGainErr(seed uint64, quick bool) (float64, error) {
	dur := 25 * time.Second
	if quick {
		dur /= 10
	}
	std, err := experiment.ThroughputOf(experiment.PaperPath(), experiment.AlgStandard, dur, seed)
	if err != nil {
		return 0, err
	}
	rss, err := experiment.ThroughputOf(experiment.PaperPath(), experiment.AlgRestricted, dur, seed)
	if err != nil {
		return 0, err
	}
	if std == 0 {
		return 0, fmt.Errorf("standard flow moved no data")
	}
	return 100 * math.Abs(float64(rss)/float64(std)-paperGain) / paperGain, nil
}
