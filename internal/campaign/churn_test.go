package campaign

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"rsstcp/internal/experiment"
)

// syntheticFlows is a hand-built result with one flow per size class, its
// digest folded by the code a run folds completions with, so every
// FCT/slowdown metric has a known closed-form value.
func syntheticFlows() experiment.Result {
	flows := []experiment.FlowRecord{
		{Start: 0, End: 100 * time.Millisecond, Bytes: 50_000, Slowdown: 2, Class: 0},
		{Start: time.Second, End: 1300 * time.Millisecond, Bytes: 500_000, Slowdown: 4, Class: 1},
		{Start: 0, End: 2 * time.Second, Bytes: 5_000_000, Slowdown: 3, Class: 2},
	}
	return experiment.Result{Flows: flows, FCT: experiment.SummarizeFCT(flows)}
}

func TestFCTMetricsExtract(t *testing.T) {
	t.Parallel()
	res := syntheticFlows()
	checks := []struct {
		m    Metric
		want float64
	}{
		{MetricFCTMean, (0.1 + 0.3 + 2.0) / 3},
		{MetricFCTP99, 0.3 + 0.98*(2.0-0.3)}, // rank 0.99·(3−1) = 1.98, interpolated between the top two
		{MetricSlowdownMean, 3},
		{MetricSlowdownSmall, 2},
		{MetricSlowdownMedium, 4},
		{MetricSlowdownLarge, 3},
		{MetricFlowsDone, 3},
	}
	for _, c := range checks {
		if got := c.m.Extract(&res); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s = %g, want %g", c.m.Name, got, c.want)
		}
	}
}

// TestFCTMetricsEmptyResult: a static run (no dynamic flows) yields NaN for
// time/slowdown metrics — rendered null by the NaN-tolerant exports — and a
// plain 0 for the completion count.
func TestFCTMetricsEmptyResult(t *testing.T) {
	t.Parallel()
	var res experiment.Result
	for _, m := range []Metric{
		MetricFCTMean, MetricFCTP99, MetricSlowdownMean,
		MetricSlowdownSmall, MetricSlowdownMedium, MetricSlowdownLarge,
	} {
		if got := m.Extract(&res); !math.IsNaN(got) {
			t.Errorf("%s on empty result = %g, want NaN", m.Name, got)
		}
	}
	if got := MetricFlowsDone.Extract(&res); got != 0 {
		t.Errorf("flows_done on empty result = %g, want 0", got)
	}
}

// TestChurnAxisSpecValidation: malformed arrival/size specs fail Plan.Validate
// — never a default running under a lying cell label.
func TestChurnAxisSpecValidation(t *testing.T) {
	t.Parallel()
	for _, bad := range []struct {
		name string
		v    any
	}{
		{"arrivals", "bogus:1"},
		{"arrivals", "poisson:0"},
		{"arrivals", "poisson:NaN"},
		{"arrivals", "poisson:Inf"},
		{"arrivals", "legacy:3"},
		{"fsize", "exp:notasize"},
		{"fsize", "pareto:1.2:4k"},
		{"fsize", "fixed:Inf"},
		{"load", 0.0},
		{"load", math.NaN()},
		{"load", math.Inf(1)},
	} {
		if compileErr(Plan{Axes: []Axis{NewAxis(bad.name, bad.v)}}) == nil {
			t.Errorf("bad churn axis value %s=%v accepted", bad.name, bad.v)
		}
	}
	good := Plan{Axes: []Axis{
		stockAxis(t, "arrivals", "poisson:50", "mmpp:10:200:500ms", "web:5:8:100ms"),
		stockAxis(t, "fsize", "fixed:64k", "exp:100k", "pareto:1.2:4k:10M", "lognorm:30k:1.5"),
		stockAxis(t, "load", 0.4, 0.8, 1.2),
	}}
	if err := good.Validate(); err != nil {
		t.Errorf("well-formed churn axes rejected: %v", err)
	}
}

// TestChurnAxisOrderingRules pins the Validate contract: bytes hard-conflicts
// with churn, and template-mutating axes must come after the churn axes that
// install the template.
func TestChurnAxisOrderingRules(t *testing.T) {
	t.Parallel()
	if err := (Plan{Axes: []Axis{stockAxis(t, "load", 0.5), stockAxis(t, "bytes", 1000)}}).Validate(); err == nil {
		t.Error("load + bytes passed validation; per-flow bytes are discarded under churn")
	}
	if err := (Plan{Axes: []Axis{
		stockAxis(t, "alg", experiment.AlgStandard), stockAxis(t, "load", 0.5),
	}}).Validate(); err == nil {
		t.Error("alg before load passed validation; alg would miss the churn template")
	}
	if err := (Plan{Axes: []Axis{
		stockAxis(t, "load", 0.5), stockAxis(t, "alg", experiment.AlgStandard, experiment.AlgRestricted),
	}}).Validate(); err != nil {
		t.Errorf("load before alg rejected: %v", err)
	}
}

// TestChurnCellsDoNotAlias: sibling cells of a churn sweep must not share a
// ChurnSpec — a mutation through one cell's config would corrupt its
// neighbors.
func TestChurnCellsDoNotAlias(t *testing.T) {
	t.Parallel()
	p := Plan{Axes: []Axis{stockAxis(t, "load", 0.4, 0.8), stockAxis(t, "fsize", "exp:40k", "fixed:64k")}}
	cells := p.Cells()
	seen := map[*experiment.ChurnSpec]string{}
	for _, c := range cells {
		if c.Config.Churn == nil {
			t.Fatalf("cell %s has no churn spec", c.Key)
		}
		if prev, dup := seen[c.Config.Churn]; dup {
			t.Fatalf("cells %s and %s alias one ChurnSpec", prev, c.Key)
		}
		seen[c.Config.Churn] = c.Key
	}
}

// churnPlan is the load × fsize sweep the tentpole promises: completion-time
// metrics over a dynamic workload, traceless and streaming.
func churnPlan(t testing.TB) Plan {
	t.Helper()
	return Plan{
		Axes: []Axis{
			stockAxis(t, "load", 0.4, 0.8),
			stockAxis(t, "fsize", "exp:40k", "pareto:1.3:4k:2M"),
		},
		Metrics: []Metric{
			MetricFCTMean, MetricFCTP99, MetricSlowdownMean,
			MetricFlowsDone, MetricThroughputMbps,
		},
		Replicates: 2,
		Duration:   2 * time.Second,
	}
}

// TestChurnCampaignWorkerCountDeterminism is the campaign half of the churn
// determinism satellite: a Poisson-arrival load × fsize sweep measuring
// FCT/slowdown renders byte-identical JSON and CSV at 1, 4, and GOMAXPROCS
// workers — dynamic flow birth/death included in the invariant.
func TestChurnCampaignWorkerCountDeterminism(t *testing.T) {
	t.Parallel()
	p := churnPlan(t)
	render := func(workers int) (string, string) {
		rep, err := ExecutePlan(p, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var j, c strings.Builder
		if err := rep.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteCSV(&c); err != nil {
			t.Fatal(err)
		}
		return j.String(), c.String()
	}
	j1, c1 := render(1)
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		jn, cn := render(workers)
		if j1 != jn {
			t.Errorf("churn JSON diverged between 1 and %d workers:\n%.1500s\nvs\n%.1500s", workers, j1, jn)
		}
		if c1 != cn {
			t.Errorf("churn CSV diverged between 1 and %d workers:\n%s\nvs\n%s", workers, c1, cn)
		}
	}
}

// TestChurnCampaignTimerWheelDeterminism is the campaign half of the wheel
// differential: the same churn sweep renders byte-identical JSON whether the
// endpoint timers ride the hierarchical wheel or the calendar, at 1, 4,
// and GOMAXPROCS workers. Plan.Base carries the toggle precisely because it
// stays out of cell keys — both runs derive identical replicate seeds.
func TestChurnCampaignTimerWheelDeterminism(t *testing.T) {
	t.Parallel()
	render := func(wheel bool, workers int) string {
		p := churnPlan(t)
		p.Base.TimerWheel = wheel
		rep, err := ExecutePlan(p, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var j strings.Builder
		if err := rep.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		return j.String()
	}
	want := render(false, 1)
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		if got := render(true, workers); got != want {
			t.Errorf("wheel campaign JSON diverged from heap baseline at %d workers:\n%.1500s\nvs\n%.1500s",
				workers, got, want)
		}
	}
}

// TestChurnCampaignProducesFlows: the sweep actually churns — every cell
// completes flows and reports finite completion times.
func TestChurnCampaignProducesFlows(t *testing.T) {
	t.Parallel()
	p := churnPlan(t)
	rep, err := ExecutePlan(p, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != p.Size() {
		t.Fatalf("cells = %d, want %d", len(rep.Cells), p.Size())
	}
	for _, c := range rep.Cells {
		done, ok := c.Metric("flows_done")
		if !ok || done.Mean <= 0 {
			t.Errorf("cell %s completed no flows: %+v", c.Key, done)
		}
		fct, ok := c.Metric("fct_mean")
		if !ok || math.IsNaN(fct.Mean) || fct.Mean <= 0 {
			t.Errorf("cell %s fct_mean = %+v, want positive", c.Key, fct)
		}
		sd, ok := c.Metric("slowdown_mean")
		if !ok || !(sd.Mean >= 1) {
			t.Errorf("cell %s slowdown_mean = %+v, want ≥ 1", c.Key, sd)
		}
		thr, ok := c.Metric("throughput_mbps")
		if !ok || thr.Mean <= 0 {
			t.Errorf("cell %s throughput_mbps = %+v; churn goodput missing from FlowThroughputs", c.Key, thr)
		}
	}
}
