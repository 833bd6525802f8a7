package rsstcp

import "rsstcp/internal/campaign"

// Sweep types, re-exported so callers compose campaigns without
// importing internal packages.
type (
	// Axis is a named sweep dimension: labeled Options mutators whose
	// cartesian product the campaign engine runs.
	Axis = campaign.Axis
	// Metric is a named per-replicate extractor func(*Result) float64;
	// campaigns summarize a caller-chosen metric set per cell.
	Metric = campaign.Metric
	// Plan is a declarative campaign: axes × replicates, with a metric
	// set. Write one as a literal or compile a Grid.
	Plan = campaign.Plan
	// Report is a completed campaign with per-cell metric summaries and
	// JSON/CSV/table exporters.
	Report = campaign.Report
	// ReportCell is one aggregated axis-product cell of a Report.
	ReportCell = campaign.ReportCell
	// MetricSummary is one metric's aggregate statistics in a ReportCell.
	MetricSummary = campaign.MetricSummary
	// Study is one of the paper's tables declared as a Plan (PaperSuite).
	Study = campaign.Study
)

// Stock metrics: the default six (StockMetrics) plus further figures of
// merit.
var (
	// MetricThroughput is aggregate goodput over all flows, Mbps.
	MetricThroughput = campaign.MetricThroughputMbps
	// MetricStalls is the send-stall count summed over all flows.
	MetricStalls = campaign.MetricStalls
	// MetricCongSignals counts congestion episodes over all flows.
	MetricCongSignals = campaign.MetricCongSignals
	// MetricRouterDrops counts bottleneck-buffer drops.
	MetricRouterDrops = campaign.MetricRouterDrops
	// MetricInjectedDrops counts loss-injector drops.
	MetricInjectedDrops = campaign.MetricInjectedDrops
	// MetricUtilization is the bottleneck's cumulative busy fraction.
	MetricUtilization = campaign.MetricUtilization
	// MetricTimeouts is the RTO count summed over all flows.
	MetricTimeouts = campaign.MetricTimeouts
	// MetricFairness is Jain's fairness index over per-flow goodputs.
	MetricFairness = campaign.MetricFairness
	// MetricCollapses counts send-stall-induced cwnd collapses.
	MetricCollapses = campaign.MetricCollapses
	// MetricTimeToUtil90 is the virtual time (s) to 90% bottleneck
	// utilization.
	MetricTimeToUtil90 = campaign.MetricTimeToUtil90
	// MetricFCTMean is the mean flow completion time (s) over a run's
	// completed dynamic flows.
	MetricFCTMean = campaign.MetricFCTMean
	// MetricFCTP99 is the 99th-percentile flow completion time (s).
	MetricFCTP99 = campaign.MetricFCTP99
	// MetricSlowdownMean is mean FCT over the ideal transfer time.
	MetricSlowdownMean = campaign.MetricSlowdownMean
	// MetricFlowsDone counts dynamic flows completed within the run.
	MetricFlowsDone = campaign.MetricFlowsDone
)

// Axis helpers, re-exported for callers that build axes programmatically.
var (
	// NewAxis builds a stock axis by name from loosely typed values; an
	// unknown name or a bad value is the axis's error, which RunPlan and
	// Plan.Compile report.
	NewAxis = campaign.NewAxis
	// StockAxisNames lists the stock axis names NewAxis accepts.
	StockAxisNames = campaign.StockAxisNames
	// StockMetrics returns the default metric set.
	StockMetrics = campaign.StockMetrics
	// MetricNames lists the registered metric names, sorted.
	MetricNames = campaign.MetricNames
	// MetricsByName resolves registered metrics in the order requested.
	MetricsByName = campaign.MetricsByName
	// PaperSuite declares the paper's tables T1–T3 and T5–T8 as plans.
	PaperSuite = campaign.PaperSuite
)

// RunPlan executes a campaign plan on a bounded worker pool; a Grid runs as
// RunPlan(g.Plan(), opts). Aggregation streams: each finished replicate folds
// into its cell's running summaries and is dropped unless
// CampaignOptions.RetainRuns keeps it, so memory scales with the cell count,
// not the run count. Aggregated results are byte-identical regardless of the
// worker count.
func RunPlan(p Plan, opts CampaignOptions) (*Report, error) {
	return campaign.ExecutePlan(p, opts)
}
