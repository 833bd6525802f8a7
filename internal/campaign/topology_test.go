package campaign

import (
	"strings"
	"testing"
	"time"

	"rsstcp/internal/experiment"
	"rsstcp/internal/unit"
)

// TestTopologyAxesParse: the new stock axes build from CLI tokens through
// the same registry as every other dimension.
func TestTopologyAxesParse(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name   string
		raw    []string
		labels []string
	}{
		{"hops", []string{"1", "3"}, []string{"1", "3"}},
		{"rbw", []string{"5", "0.5"}, []string{"5Mbps", "500Kbps"}},
		{"aqm", []string{"droptail", "red"}, []string{"droptail", "red"}},
		{"topo", []string{"parking-lot", "reverse-congested"}, []string{"parking-lot", "reverse-congested"}},
	} {
		a := ParseAxis(tc.name, tc.raw)
		if a.err != nil {
			t.Errorf("%s: %v", tc.name, a.err)
			continue
		}
		for i, want := range tc.labels {
			if a.Values[i].Label != want {
				t.Errorf("%s[%d]: label %q, want %q", tc.name, i, a.Values[i].Label, want)
			}
		}
	}
	for _, bad := range [][2]string{
		{"hops", "0"}, {"hops", "2000000000"}, {"rbw", "-1"}, {"aqm", "codel"}, {"topo", "clos"},
	} {
		if compileErr(Plan{Axes: []Axis{ParseAxis(bad[0], []string{bad[1]})}}) == nil {
			t.Errorf("%s=%s accepted", bad[0], bad[1])
		}
	}
}

// TestTopologyAxisMutations: the axes imprint the right Config fields, and
// rbw/aqm retarget an explicit topology when one is installed first.
func TestTopologyAxisMutations(t *testing.T) {
	t.Parallel()
	var cfg experiment.Config
	stockAxis(t, "hops", 3).Values[0].Set(&cfg)
	if cfg.Path.Hops != 3 {
		t.Errorf("hops axis: Path.Hops = %d", cfg.Path.Hops)
	}
	stockAxis(t, "rbw", 5*unit.Mbps).Values[0].Set(&cfg)
	if cfg.Path.ReverseRate != 5*unit.Mbps {
		t.Errorf("rbw axis: Path.ReverseRate = %v", cfg.Path.ReverseRate)
	}
	stockAxis(t, "aqm", experiment.DiscRED).Values[0].Set(&cfg)
	if cfg.Path.AQM != experiment.DiscRED {
		t.Errorf("aqm axis: Path.AQM = %q", cfg.Path.AQM)
	}

	var lot experiment.Config
	stockAxis(t, "topo", "parking-lot").Values[0].Set(&lot)
	if lot.Topology == nil || len(lot.Topology.Hops) != 3 {
		t.Fatalf("topo axis did not install the 3-hop parking lot: %+v", lot.Topology)
	}
	if len(lot.Flows) != 1 || !lot.Flows[0].Cross {
		t.Fatalf("parking-lot preset flows = %+v, want one cross flow", lot.Flows)
	}
	stockAxis(t, "rbw", 2*unit.Mbps).Values[0].Set(&lot)
	if lot.Topology.Reverse.Rate != 2*unit.Mbps || lot.Path.ReverseRate != 0 {
		t.Errorf("rbw after topo: topology reverse %v, path reverse %v",
			lot.Topology.Reverse.Rate, lot.Path.ReverseRate)
	}
	stockAxis(t, "aqm", experiment.DiscRED).Values[0].Set(&lot)
	for i, h := range lot.Topology.Hops {
		if h.Discipline != experiment.DiscRED {
			t.Errorf("aqm after topo: hop %d discipline %q", i, h.Discipline)
		}
	}
}

// TestTopoAxisValidation: the plan validator rejects combinations whose cell
// labels would lie (topo + path axes) and orderings the preset would clobber
// (rbw/aqm before topo).
func TestTopoAxisValidation(t *testing.T) {
	t.Parallel()
	topo := stockAxis(t, "topo", "parking-lot")
	for _, clash := range []Axis{
		stockAxis(t, "hops", 2),
		stockAxis(t, "bw", 10*unit.Mbps),
		stockAxis(t, "rtt", 10*time.Millisecond),
		stockAxis(t, "rq", 100),
		stockAxis(t, "loss", 0.01),
	} {
		p := Plan{Axes: []Axis{topo, clash}}
		if err := p.Validate(); err == nil {
			t.Errorf("topo + %s accepted", clash.Name)
		}
	}
	bad := Plan{Axes: []Axis{stockAxis(t, "rbw", unit.Mbps), topo}}
	if err := bad.Validate(); err == nil {
		t.Error("rbw before topo accepted")
	}
	good := Plan{Axes: []Axis{topo, stockAxis(t, "rbw", unit.Mbps), stockAxis(t, "aqm", experiment.DiscRED)}}
	if err := good.Validate(); err != nil {
		t.Errorf("topo then rbw/aqm rejected: %v", err)
	}
	// Without topo, the path-level axes compose freely.
	free := Plan{Axes: []Axis{stockAxis(t, "hops", 1, 3), stockAxis(t, "bw", 10*unit.Mbps), stockAxis(t, "rbw", unit.Mbps)}}
	if err := free.Validate(); err != nil {
		t.Errorf("hops + bw + rbw rejected: %v", err)
	}
}

// flowsOf returns the measured (cross false) or the cross-traffic flows, in
// order.
func flowsOf(flows []experiment.FlowSpec, cross bool) []experiment.FlowSpec {
	var out []experiment.FlowSpec
	for _, fl := range flows {
		if fl.Cross == cross {
			out = append(out, fl)
		}
	}
	return out
}

// TestCrossFlowsSurviveFlowAxes: per-flow and flow-list axes shape only the
// measured flows; a preset's cross traffic rides along untouched.
func TestCrossFlowsSurviveFlowAxes(t *testing.T) {
	t.Parallel()
	var cfg experiment.Config
	stockAxis(t, "topo", "parking-lot").Values[0].Set(&cfg)

	stockAxis(t, "alg", experiment.AlgRestricted).Values[0].Set(&cfg)
	cross := flowsOf(cfg.Flows, true)
	if len(cross) != 1 || cross[0].Alg != experiment.AlgStandard {
		t.Fatalf("alg axis touched the cross flow: %+v", cfg.Flows)
	}
	measured := flowsOf(cfg.Flows, false)
	if len(measured) != 1 || measured[0].Alg != experiment.AlgRestricted {
		t.Fatalf("alg axis did not materialize a restricted measured flow: %+v", cfg.Flows)
	}

	stockAxis(t, "flows", 3).Values[0].Set(&cfg)
	if len(flowsOf(cfg.Flows, false)) != 3 || len(flowsOf(cfg.Flows, true)) != 1 {
		t.Fatalf("flows axis lost flows: %+v", cfg.Flows)
	}
	for _, f := range flowsOf(cfg.Flows, false) {
		if f.Alg != experiment.AlgRestricted {
			t.Errorf("replicated measured flow alg = %q", f.Alg)
		}
	}

	stockAxis(t, "matchup", []experiment.Algorithm{experiment.AlgStandard, experiment.AlgRestricted}).Values[0].Set(&cfg)
	if len(flowsOf(cfg.Flows, false)) != 2 || len(flowsOf(cfg.Flows, true)) != 1 {
		t.Fatalf("matchup axis lost the cross flow: %+v", cfg.Flows)
	}
}

// TestTopologyMatrixSmoke is the CI topology-matrix gate: a 3-hop RED
// parking lot with an asymmetric congested reverse channel, swept over both
// algorithms end to end through the generic engine, exporting per-hop drop
// metrics. Short by construction (1 s runs, 4 cells).
func TestTopologyMatrixSmoke(t *testing.T) {
	t.Parallel()
	plan := Plan{
		Axes: []Axis{
			stockAxis(t, "topo", "parking-lot"),
			stockAxis(t, "rbw", 500*unit.Kbps),
			stockAxis(t, "aqm", experiment.DiscDropTail, experiment.DiscRED),
			stockAxis(t, "alg", experiment.AlgStandard, experiment.AlgRestricted),
		},
		Metrics: []Metric{MetricThroughputMbps, MetricHopDropsMax, MetricReverseDrops},
		// The preset's cross flow starts at 1 s; two virtual seconds make it
		// actually transmit, so the smoke exercises hop-span routing and the
		// egress exit tables, not just the straight-through path.
		Replicates: 1,
		Duration:   2 * time.Second,
		BaseSeed:   3,
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	rep, err := ExecutePlan(plan, Options{Workers: 2, RetainRuns: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(rep.Cells))
	}
	var anyRevDrops bool
	for _, c := range rep.Cells {
		thr, ok := c.Metric("throughput_mbps")
		if !ok || !(thr.Mean > 0) {
			t.Errorf("cell %s: no throughput (%+v)", c.Key, thr)
		}
		if _, ok := c.Metric("hop_drops_max"); !ok {
			t.Errorf("cell %s: hop_drops_max missing", c.Key)
		}
		rev, ok := c.Metric("rev_drops")
		if !ok {
			t.Errorf("cell %s: rev_drops missing", c.Key)
		} else if rev.Mean > 0 {
			anyRevDrops = true
		}
		for _, r := range c.Runs {
			if len(r.HopDrops) != 3 {
				t.Errorf("cell %s: replicate hop_drops = %v, want 3 entries", c.Key, r.HopDrops)
			}
		}
	}
	if !anyRevDrops {
		t.Error("500 Kbps reverse channel dropped no ACKs in any cell")
	}

	// The raw export must carry the per-hop drops for downstream tooling.
	var sb strings.Builder
	if err := rep.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"hop_drops"`) {
		t.Error("report JSON missing hop_drops")
	}
	if !strings.Contains(sb.String(), `"rev_drops"`) {
		t.Error("report JSON missing rev_drops")
	}
}

// TestWorkerCountStableOnTopologyPlans extends the determinism invariant to
// hop-graph cells: one worker and eight emit byte-identical reports.
func TestWorkerCountStableOnTopologyPlans(t *testing.T) {
	t.Parallel()
	plan := Plan{
		Axes: []Axis{
			stockAxis(t, "topo", "parking-lot", "reverse-congested"),
			stockAxis(t, "alg", experiment.AlgRestricted),
		},
		Metrics:    []Metric{MetricThroughputMbps, MetricHopDropsMax, MetricReverseDrops},
		Replicates: 2,
		Duration:   2 * time.Second, // past the parking-lot cross flow's 1 s start
		BaseSeed:   9,
	}
	render := func(workers int) string {
		rep, err := ExecutePlan(plan, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := rep.WriteJSON(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if j1, j8 := render(1), render(8); j1 != j8 {
		t.Errorf("topology report diverged between 1 and 8 workers:\n%.1200s\nvs\n%.1200s", j1, j8)
	}
}
