package campaign

import (
	"time"

	"rsstcp/internal/experiment"
	"rsstcp/internal/unit"
)

// Study is one of the paper's tables declared as a campaign plan.
type Study struct {
	// ID names the table (e.g. "ifqsweep"); Title says which one it is.
	ID, Title string
	Plan      Plan
}

// PaperSuite declares the paper's tables T1–T3 and T5–T8 as plans on the
// paper path, each run for d. F1 is experiment.Figure1 (a time series, not a
// sweep) and T4 is cmd/rsstcp-tune. The paper path has no random element, so
// the derived replicate seeds give the numbers a seed-1 run gives.
func PaperSuite(d time.Duration) []Study {
	std, rss := experiment.AlgStandard, experiment.AlgRestricted
	ms := time.Millisecond
	paper := func(axes []Axis, metrics []Metric, flows ...experiment.FlowSpec) Plan {
		return Plan{Axes: axes, Metrics: metrics, Duration: d,
			Base: experiment.Config{Path: experiment.PaperPath(), Flows: flows}}
	}
	return []Study{
		{"throughput", "T1: throughput comparison (paper §4; the paper reports ~1.40x restricted vs standard)", paper(
			[]Axis{dimAlg.axis(experiment.Algorithms()...)},
			[]Metric{MetricThroughputMbps, MetricStalls, MetricCongSignals, MetricTimeouts, MetricUtilization})},
		{"ifqsweep", "T2: IFQ size sweep (paper §2: soft-component memory buys throughput; RSS needs none)", paper(
			[]Axis{dimIFQ.axis(50, 100, 200, 500, 1000, 2000), dimAlg.axis(std, rss)},
			[]Metric{MetricThroughputMbps, MetricStalls})},
		{"rttsweep", "T3: RTT sweep across slow-start schemes (collapse recovery costs ~BDP/2 round trips)", paper(
			[]Axis{dimRTT.axis(10*ms, 30*ms, 60*ms, 120*ms, 200*ms),
				dimAlg.axis(std, experiment.AlgLimited, experiment.AlgHyStart, rss)},
			[]Metric{MetricThroughputMbps})},
		{"setpoint", "T5: IFQ set-point ablation (the paper uses 90% of txqueuelen)", paper(
			[]Axis{dimAlg.axis(rss), dimSetpoint.axis(0.5, 0.7, 0.9, 0.95, 1.0)},
			[]Metric{MetricThroughputMbps, MetricStalls, MetricIFQMax, MetricUtilization})},
		{"friendliness", "T6: primary + standard cross flow from t=2s on a shared bottleneck", paper(
			[]Axis{dimAlg.axis(std, rss, experiment.AlgLimited)},
			[]Metric{MetricThroughputMbps, MetricFairness, MetricRouterDrops},
			experiment.FlowSpec{Alg: std, StartAt: 2 * time.Second, Cross: true})},
		{"nicrate", "T7: NIC rate vs a 100 Mbps bottleneck, SACK on (paper §2: stalls are host-local)", paper(
			[]Axis{dimNIC.axis(100*unit.Mbps, 200*unit.Mbps, 1000*unit.Mbps), dimAlg.axis(std, rss)},
			[]Metric{MetricThroughputMbps, MetricStalls, MetricRouterDrops},
			experiment.FlowSpec{SACK: true})},
		{"ticksweep", "T8: RSS control-tick ablation (the controller must act well within one 60 ms RTT)", paper(
			[]Axis{dimAlg.axis(rss), dimTick.axis(1*ms, 2*ms, 5*ms, 10*ms, 20*ms, 60*ms)},
			[]Metric{MetricThroughputMbps, MetricStalls, MetricIFQMax})},
	}
}
