package rsstcp_test

import (
	"fmt"
	"log"
	"strings"
	"testing"
	"time"

	"rsstcp"
)

// ExampleRun is the godoc quick start: one restricted-slow-start flow on the
// paper's Section 4 path. Restricted slow-start exists to eliminate
// send-stalls, so the measured flow reports zero.
func ExampleRun() {
	res, err := rsstcp.Run(rsstcp.Options{
		Path:     rsstcp.PaperPath(),
		Flows:    []rsstcp.Flow{{Alg: rsstcp.Restricted}},
		Duration: 2 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alg=%s stalls=%d moving-data=%v\n", res.Alg, res.Stalls, res.Throughput > 0)
	// Output: alg=restricted stalls=0 moving-data=true
}

// ExampleRunPlan sweeps the Grid shorthand: algorithms × RTTs, with cells in
// canonical order and parameter-derived keys.
func ExampleRunPlan() {
	res, err := rsstcp.RunPlan(rsstcp.Grid{
		RTTs:       []time.Duration{20 * time.Millisecond, 60 * time.Millisecond},
		Algorithms: []rsstcp.Algorithm{rsstcp.Restricted},
		Duration:   time.Second,
	}.Plan(), rsstcp.CampaignOptions{Workers: 2})
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range res.Cells {
		fmt.Println(c.Key)
	}
	// Output:
	// bw=100Mbps/rtt=20ms/rq=250/ifq=100/loss=0/alg=restricted/flows=1
	// bw=100Mbps/rtt=60ms/rq=250/ifq=100/loss=0/alg=restricted/flows=1
}

// ExamplePlan writes a sweep the fixed grid cannot express as one literal:
// the RSS set point becomes an axis and fairness a reported metric.
func ExamplePlan() {
	rep, err := rsstcp.RunPlan(rsstcp.Plan{
		Axes: []rsstcp.Axis{
			rsstcp.NewAxis("setpoint", 0.5, 0.9),
			rsstcp.NewAxis("alg", rsstcp.Restricted),
		},
		Metrics:  []rsstcp.Metric{rsstcp.MetricThroughput, rsstcp.MetricFairness},
		Duration: time.Second,
	}, rsstcp.CampaignOptions{Workers: 2})
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range rep.Cells {
		fair, _ := c.Metric("fairness")
		fmt.Printf("%s fairness=%.2f\n", c.Key, fair.Mean)
	}
	// Output:
	// setpoint=0.5/alg=restricted fairness=1.00
	// setpoint=0.9/alg=restricted fairness=1.00
}

func TestRunQuickstart(t *testing.T) {
	res, err := rsstcp.Run(rsstcp.Options{
		Path:     rsstcp.PaperPath(),
		Flows:    []rsstcp.Flow{{Alg: rsstcp.Restricted}},
		Duration: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 {
		t.Error("no throughput")
	}
	if res.Alg != rsstcp.Restricted {
		t.Errorf("Alg = %q, want restricted", res.Alg)
	}
}

func TestRunRejectsBadAlgorithm(t *testing.T) {
	_, err := rsstcp.Run(rsstcp.Options{Flows: []rsstcp.Flow{{Alg: "nope"}}})
	if err == nil {
		t.Fatal("bad algorithm accepted")
	}
}

func TestBuildExposesComponents(t *testing.T) {
	s, err := rsstcp.Build(rsstcp.Options{
		Flows:    []rsstcp.Flow{{Alg: rsstcp.Restricted}},
		Duration: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Flows[0].Sender.Controller() == nil || s.Flows[0].NIC() == nil || s.Flows[0].RSS == nil {
		t.Error("scenario components not exposed")
	}
	res := s.Run()
	if res.Duration != time.Second {
		t.Errorf("Duration = %v, want 1s", res.Duration)
	}
}

func TestPaperPathConstants(t *testing.T) {
	p := rsstcp.PaperPath()
	if p.Bottleneck != 100*rsstcp.Mbps || p.RTT != 60*time.Millisecond || p.TxQueueLen != 100 {
		t.Errorf("PaperPath = %+v", p)
	}
}

func TestFigure1Facade(t *testing.T) {
	fig, err := rsstcp.Figure1(rsstcp.PaperPath(), 3*time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Seconds) != 4 {
		t.Errorf("rows = %d, want 4", len(fig.Seconds))
	}
	if fig.Table() == nil {
		t.Error("nil table")
	}
}

func TestRunPlanFacade(t *testing.T) {
	res, err := rsstcp.RunPlan(rsstcp.Grid{
		RTTs:       []time.Duration{20 * time.Millisecond, 60 * time.Millisecond},
		Algorithms: []rsstcp.Algorithm{rsstcp.Standard, rsstcp.Restricted},
		Duration:   time.Second,
	}.Plan(), rsstcp.CampaignOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(res.Cells))
	}
	for _, c := range res.Cells {
		if thr, _ := c.Metric("throughput_mbps"); thr.Mean <= 0 {
			t.Errorf("cell %s made no progress", c.Key)
		}
	}
	if rsstcp.DefaultCampaignWorkers() < 1 {
		t.Error("DefaultCampaignWorkers < 1")
	}
}

func TestPlanLiteralExtendsGrid(t *testing.T) {
	// A grid's plan + an extra axis + named metrics: the grid's axes and
	// knobs carry over and the new dimension stacks on top.
	plan := rsstcp.Grid{
		Algorithms: []rsstcp.Algorithm{rsstcp.Restricted},
		Duration:   time.Second,
		BaseSeed:   11,
	}.Plan()
	plan.Axes = append(plan.Axes, rsstcp.NewAxis("setpoint", 0.5, 0.9))
	var err error
	if plan.Metrics, err = rsstcp.MetricsByName("throughput_mbps", "t90_util_s"); err != nil {
		t.Fatal(err)
	}
	if len(plan.Axes) != 8 { // 7 grid axes + setpoint
		t.Fatalf("axes = %d, want 8", len(plan.Axes))
	}
	rep, err := rsstcp.RunPlan(plan, rsstcp.CampaignOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(rep.Cells))
	}
	for _, cell := range rep.Cells {
		if len(cell.Metrics) != 2 || cell.Metrics[0].Name != "throughput_mbps" || cell.Metrics[1].Name != "t90_util_s" {
			t.Errorf("cell %s metrics = %+v, want the two selected columns in order", cell.Key, cell.Metrics)
		}
		if thr, _ := cell.Metric("throughput_mbps"); thr.Mean <= 0 {
			t.Errorf("cell %s made no progress", cell.Key)
		}
	}
}

func TestPlanLiteralSurfacesErrors(t *testing.T) {
	// An axis carries its construction error; RunPlan and Validate report it,
	// and Compile reports a value out of domain.
	if _, err := rsstcp.RunPlan(rsstcp.Plan{Axes: []rsstcp.Axis{rsstcp.NewAxis("bogus-axis", 1)}}, rsstcp.CampaignOptions{}); err == nil {
		t.Error("unknown axis accepted")
	}
	if err := (rsstcp.Plan{Axes: []rsstcp.Axis{rsstcp.NewAxis("rtt", "not-a-duration")}}).Validate(); err == nil {
		t.Error("bad axis value accepted")
	}
	if _, err := (rsstcp.Plan{Axes: []rsstcp.Axis{rsstcp.NewAxis("bw", "-5")}}).Compile(); err == nil {
		t.Error("out-of-domain axis value accepted")
	}
	if _, err := rsstcp.MetricsByName("bogus-metric"); err == nil {
		t.Error("unknown metric accepted")
	}
}

// TestGridNegativeCountsFailRunPlan: a Grid's negative Replicates or
// Duration reaches RunPlan as an error; the Grid used to turn it into one
// replicate of 25 s.
func TestGridNegativeCountsFailRunPlan(t *testing.T) {
	g := rsstcp.Grid{Replicates: -3, Duration: -time.Second}
	if _, err := rsstcp.RunPlan(g.Plan(), rsstcp.CampaignOptions{}); err == nil ||
		!strings.Contains(err.Error(), "negative") {
		t.Errorf("RunPlan(Grid{Replicates: -3, Duration: -1s}) = %v, want the negative-count error", err)
	}
}

func TestThroughputFacade(t *testing.T) {
	thr, err := rsstcp.Throughput(rsstcp.PaperPath(), rsstcp.Standard, 3*time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	if thr <= 0 || thr > 100*rsstcp.Mbps {
		t.Errorf("throughput = %v outside (0, 100Mbps]", thr)
	}
}

// ExampleNewTopology assembles a two-bottleneck path with a congested
// reverse channel entirely through the facade: two hops of different rates,
// ACKs through a real 2 Mbps queue, per-hop drop counters in the result.
func ExampleNewTopology() {
	topo := rsstcp.NewTopology(
		rsstcp.HopAt(100*rsstcp.Mbps, 10*time.Millisecond, 250),
		rsstcp.HopAt(50*rsstcp.Mbps, 20*time.Millisecond, 120),
	).WithReverse(2*rsstcp.Mbps, 0, 50)
	res, err := rsstcp.Run(rsstcp.Options{
		Topology: topo,
		Flows:    []rsstcp.Flow{{Alg: rsstcp.Restricted}},
		Duration: 2 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hops=%d bottleneck-second-hop=%v moving-data=%v\n",
		len(res.Hops), res.Hops[1].Utilization > res.Hops[0].Utilization, res.Throughput > 0)
	// Output: hops=2 bottleneck-second-hop=true moving-data=true
}

func TestTopologyFacade(t *testing.T) {
	t.Parallel()
	// A preset applies through the facade, cross traffic included.
	var opts rsstcp.Options
	if err := rsstcp.ApplyPreset(&opts, "parking-lot"); err != nil {
		t.Fatal(err)
	}
	opts.Flows = append([]rsstcp.Flow{{Alg: rsstcp.Restricted}}, opts.Flows...)
	opts.Duration = 2 * time.Second
	res, err := rsstcp.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hops) != 3 {
		t.Fatalf("parking-lot hops = %d, want 3", len(res.Hops))
	}
	if err := rsstcp.ApplyPreset(&opts, "bogus"); err == nil {
		t.Error("unknown preset accepted")
	}

	// Route helpers resolve to the right span.
	r := rsstcp.HopSpan(1, 1)
	if r.FirstHop != 1 || r.Hops != 1 {
		t.Errorf("HopSpan = %+v", r)
	}
	cf := rsstcp.CrossFlow(rsstcp.Standard, r, time.Second)
	if !cf.Cross || cf.Route != r || cf.StartAt != time.Second {
		t.Errorf("CrossFlow = %+v", cf)
	}
}

func TestTopologyCampaignFacade(t *testing.T) {
	t.Parallel()
	// A custom topology pinned on a sweep through TopologyAxis, reporting
	// the per-hop metrics.
	topo := rsstcp.NewTopology(
		rsstcp.HopAt(50*rsstcp.Mbps, 5*time.Millisecond, 120),
		rsstcp.HopAt(25*rsstcp.Mbps, 5*time.Millisecond, 60),
	)
	metrics, err := rsstcp.MetricsByName("throughput_mbps", "hop_drops_max", "rev_drops")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rsstcp.RunPlan(rsstcp.Plan{
		Axes: []rsstcp.Axis{
			rsstcp.TopologyAxis("two-bottleneck", *topo),
			rsstcp.NewAxis("alg", rsstcp.Restricted),
		},
		Metrics:  metrics,
		Duration: time.Second,
	}, rsstcp.CampaignOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 1 {
		t.Fatalf("cells = %d, want 1", len(rep.Cells))
	}
	if got := rep.Cells[0].Key; got != "topo=two-bottleneck/alg=restricted" {
		t.Errorf("cell key = %q", got)
	}
	if m, ok := rep.Cells[0].Metric("hop_drops_max"); !ok || m.N != 1 {
		t.Errorf("hop_drops_max summary = %+v, %v", m, ok)
	}
	// topo + a conflicting path axis must fail validation end to end.
	_, err = rsstcp.RunPlan(rsstcp.Plan{Axes: []rsstcp.Axis{
		rsstcp.TopologyAxis("two-bottleneck", *topo),
		rsstcp.NewAxis("bw", 10),
	}}, rsstcp.CampaignOptions{})
	if err == nil {
		t.Error("topo + bw axis accepted")
	}
}

func TestChurnCampaignFacade(t *testing.T) {
	t.Parallel()
	// The tentpole surface: a load × fsize sweep under Poisson arrivals,
	// measuring completion-time metrics, written as one Plan literal through
	// the facade.
	rep, err := rsstcp.RunPlan(rsstcp.Plan{
		Axes: []rsstcp.Axis{
			rsstcp.NewAxis("load", 0.5),
			rsstcp.NewAxis("arrivals", "poisson:50"),
			rsstcp.NewAxis("fsize", "exp:40k"),
			rsstcp.NewAxis("alg", rsstcp.Restricted),
		},
		Metrics: []rsstcp.Metric{rsstcp.MetricFCTMean, rsstcp.MetricFCTP99,
			rsstcp.MetricSlowdownMean, rsstcp.MetricFlowsDone},
		Duration: 2 * time.Second,
	}, rsstcp.CampaignOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 1 {
		t.Fatalf("cells = %d, want 1", len(rep.Cells))
	}
	if got := rep.Cells[0].Key; got != "load=0.5/arrivals=poisson:50/fsize=exp:40k/alg=restricted" {
		t.Errorf("cell key = %q", got)
	}
	if m, ok := rep.Cells[0].Metric("flows_done"); !ok || m.Mean <= 0 {
		t.Errorf("flows_done = %+v, %v; the sweep churned no flows", m, ok)
	}
	if m, ok := rep.Cells[0].Metric("fct_mean"); !ok || m.Mean <= 0 {
		t.Errorf("fct_mean = %+v, %v", m, ok)
	}
	// Churn axes after a template-mutating axis must fail validation.
	_, err = rsstcp.RunPlan(rsstcp.Plan{Axes: []rsstcp.Axis{
		rsstcp.NewAxis("alg", rsstcp.Standard),
		rsstcp.NewAxis("load", 0.5),
	}}, rsstcp.CampaignOptions{})
	if err == nil {
		t.Error("alg-before-load plan accepted")
	}
}
