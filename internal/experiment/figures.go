package experiment

import (
	"fmt"
	"time"

	"rsstcp/internal/sim"
	"rsstcp/internal/unit"
)

// runOne builds and runs a single-flow scenario, traced only when the caller
// reads its series.
func runOne(path PathConfig, spec FlowSpec, duration time.Duration, seed uint64, traceless bool) (Result, *Scenario, error) {
	s, err := Build(Config{
		Path:      path,
		Flows:     []FlowSpec{spec},
		Duration:  duration,
		Seed:      seed,
		Traceless: traceless,
	})
	if err != nil {
		return Result{}, nil, err
	}
	res := s.Run()
	return res, s, nil
}

// Figure1Result carries the two cumulative send-stall series of the paper's
// Figure 1, sampled on a 1-second grid.
type Figure1Result struct {
	Seconds    []float64
	Standard   []float64
	Restricted []float64
	// Summary rows.
	StandardResult   Result
	RestrictedResult Result
}

// Figure1 regenerates the paper's only figure: cumulative send-stall
// signals over time for standard Linux TCP and the proposed scheme, on the
// same path.
func Figure1(path PathConfig, duration time.Duration, seed uint64) (Figure1Result, error) {
	var out Figure1Result
	stdRes, stdScen, err := runOne(path, FlowSpec{Alg: AlgStandard}, duration, seed, false)
	if err != nil {
		return out, err
	}
	rssRes, rssScen, err := runOne(path, FlowSpec{Alg: AlgRestricted}, duration, seed, false)
	if err != nil {
		return out, err
	}
	out.StandardResult = stdRes
	out.RestrictedResult = rssRes
	stdSeries := stdScen.StallSeries(0)
	rssSeries := rssScen.StallSeries(0)
	for sec := 0; sec <= int(duration/time.Second); sec++ {
		t := time.Duration(sec) * time.Second
		out.Seconds = append(out.Seconds, t.Seconds())
		out.Standard = append(out.Standard, stdSeries.At(sim.At(t)))
		out.Restricted = append(out.Restricted, rssSeries.At(sim.At(t)))
	}
	return out, nil
}

// Table renders the Figure 1 series as rows (one per second).
func (f Figure1Result) Table() *Table {
	t := &Table{
		Title:  "Figure 1: cumulative send-stall signals vs time",
		Header: []string{"seconds", "standard-tcp", "restricted-ss"},
		Notes: []string{
			"paper: standard Linux TCP accrues send-stalls during/after slow-start; the proposed scheme stays near zero",
		},
	}
	for i := range f.Seconds {
		t.Add(fmt.Sprintf("%.0f", f.Seconds[i]),
			fmt.Sprintf("%.0f", f.Standard[i]),
			fmt.Sprintf("%.0f", f.Restricted[i]))
	}
	return t
}

// ThroughputOf is a small helper used by benches: run one algorithm on the
// path and return its goodput.
func ThroughputOf(path PathConfig, alg Algorithm, duration time.Duration, seed uint64) (unit.Bandwidth, error) {
	res, _, err := runOne(path, FlowSpec{Alg: alg}, duration, seed, true)
	if err != nil {
		return 0, err
	}
	return res.Throughput, nil
}
