package campaign

import (
	"slices"
	"strings"
	"testing"
	"time"

	"rsstcp/internal/experiment"
	"rsstcp/internal/unit"
)

func TestMetricFairness(t *testing.T) {
	jain := func(tps ...unit.Bandwidth) float64 {
		return MetricFairness.Extract(&experiment.Result{FlowThroughputs: tps})
	}
	if f := jain(50 * unit.Mbps); f != 1 {
		t.Errorf("single flow fairness = %g, want 1", f)
	}
	if f := jain(30*unit.Mbps, 30*unit.Mbps); f != 1 {
		t.Errorf("equal-share fairness = %g, want 1", f)
	}
	if f := jain(60*unit.Mbps, 0); f != 0.5 {
		t.Errorf("starved-flow fairness = %g, want 0.5", f)
	}
	if f := jain(); f != 0 {
		t.Errorf("no-flow fairness = %g, want 0", f)
	}
	// All-zero throughputs are an equal share, not starvation.
	if f := jain(0); f != 1 {
		t.Errorf("single zero-throughput flow fairness = %g, want 1", f)
	}
	if f := jain(0, 0); f != 1 {
		t.Errorf("all-zero fairness = %g, want 1", f)
	}
}

func TestMetricRegistrySelectsAndOrders(t *testing.T) {
	ms, err := MetricsByName("fairness", "throughput_mbps")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 || ms[0].Name != "fairness" || ms[1].Name != "throughput_mbps" {
		t.Fatalf("metrics = %+v", ms)
	}
	if _, err := MetricsByName("nope"); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("unknown metric error = %v", err)
	}
	seen := map[string]bool{}
	for _, m := range Metrics() {
		if m.Name == "" || m.Extract == nil {
			t.Errorf("malformed registered metric %+v", m)
		}
		if seen[m.Name] {
			t.Errorf("duplicate registered metric %q", m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range StockMetrics() {
		if !seen[m.Name] {
			t.Errorf("stock metric %q not in registry", m.Name)
		}
	}
}

// TestMetricIFQMax: ifq_max reads the measured flow's IFQ high-water mark,
// is selectable by name, and stays out of the stock set the Plan golden pins.
func TestMetricIFQMax(t *testing.T) {
	var r experiment.Result
	r.NIC.MaxQueue = 93
	if v := MetricIFQMax.Extract(&r); v != 93 {
		t.Errorf("ifq_max = %g, want 93", v)
	}
	if !slices.Contains(MetricNames(), "ifq_max") {
		t.Errorf("ifq_max missing from MetricNames() %v", MetricNames())
	}
	if slices.ContainsFunc(StockMetrics(), func(m Metric) bool { return m.Name == "ifq_max" }) {
		t.Error("ifq_max is in StockMetrics(); it would move the Plan golden")
	}
}

// TestCustomMetricsEndToEnd runs a real (tiny) sweep with new metrics and
// sanity-checks the physics: restricted slow-start should collapse less and
// both cells must report a ramp time within the run.
func TestCustomMetricsEndToEnd(t *testing.T) {
	plan := Plan{
		Axes: []Axis{
			stockAxis(t, "alg", experiment.AlgStandard, experiment.AlgRestricted),
			stockAxis(t, "flows", 2),
		},
		Metrics:  []Metric{MetricFairness, MetricCollapses, MetricTimeToUtil90, MetricTimeouts},
		Duration: 3 * time.Second,
	}
	rep, err := ExecutePlan(plan, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		fair, ok := c.Metric("fairness")
		if !ok || fair.Mean <= 0 || fair.Mean > 1 {
			t.Errorf("cell %s fairness = %+v", c.Key, fair)
		}
		t90, ok := c.Metric("t90_util_s")
		if !ok || t90.Mean <= 0 || t90.Mean > plan.Duration.Seconds() {
			t.Errorf("cell %s t90 = %+v", c.Key, t90)
		}
	}
	stdCollapses, _ := rep.Cells[0].Metric("collapses")
	rssCollapses, _ := rep.Cells[1].Metric("collapses")
	if stdCollapses.Mean <= rssCollapses.Mean {
		t.Errorf("standard collapses (%g) not above restricted (%g) — paper effect missing",
			stdCollapses.Mean, rssCollapses.Mean)
	}
}

// TestSetpointAxisChangesBehaviour: the set-point sweep the fixed Grid could
// never express must actually alter the controller's operating point.
func TestSetpointAxisChangesBehaviour(t *testing.T) {
	plan := Plan{
		Axes: []Axis{
			stockAxis(t, "setpoint", 0.2, 0.9),
			stockAxis(t, "alg", experiment.AlgRestricted),
		},
		Metrics:  []Metric{MetricThroughputMbps, MetricUtilization},
		Duration: 3 * time.Second,
	}
	rep, err := ExecutePlan(plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := rep.Cells[0].Metric("throughput_mbps")
	hi, _ := rep.Cells[1].Metric("throughput_mbps")
	if lo.Mean == hi.Mean {
		t.Errorf("set point 0.2 and 0.9 produced identical throughput %g — axis not reaching the controller", lo.Mean)
	}
}
