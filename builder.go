package rsstcp

import (
	"time"

	"rsstcp/internal/campaign"
)

// Sweep types, re-exported so callers compose campaigns without
// importing internal packages.
type (
	// Axis is a named sweep dimension: labeled Options mutators whose
	// cartesian product the campaign engine runs.
	Axis = campaign.Axis
	// AxisValue is one labeled point of an Axis.
	AxisValue = campaign.Value
	// Metric is a named per-replicate extractor func(*Result) float64;
	// campaigns summarize a caller-chosen metric set per cell.
	Metric = campaign.Metric
	// Plan is a declarative campaign: axes × replicates, with a metric
	// set. Build one with NewCampaign or compile a Grid.
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
	// NewAxis builds a stock axis by name from loosely typed values.
	NewAxis = campaign.NewAxis
	// ParseAxis builds a stock axis by name from CLI string tokens.
	ParseAxis = campaign.ParseAxis
	// StockAxisNames lists the stock axis names NewAxis/Sweep accept.
	StockAxisNames = campaign.StockAxisNames
	// StockMetrics returns the default metric set.
	StockMetrics = campaign.StockMetrics
	// AllMetrics lists every registered metric.
	AllMetrics = campaign.Metrics
	// MetricNames lists the registered metric names, sorted.
	MetricNames = campaign.MetricNames
	// MetricsByName resolves registered metrics in the order requested.
	MetricsByName = campaign.MetricsByName
	// AxisValueOf builds a custom axis value from a label and mutator.
	AxisValueOf = campaign.Val
	// PaperSuite declares the paper's tables T1–T3 and T5–T8 as plans.
	PaperSuite = campaign.PaperSuite
)

// Campaign is a sweep under construction: a builder over the generic axis
// engine. Assemble it with NewCampaign and functional options, then Run it.
//
//	rep, err := rsstcp.NewCampaign(
//		rsstcp.Sweep("setpoint", 0.5, 0.7, 0.9),
//		rsstcp.Sweep("rtt", "20ms", "60ms"),
//		rsstcp.Sweep("alg", rsstcp.Restricted),
//		rsstcp.Measure(rsstcp.MetricThroughput, rsstcp.MetricFairness),
//		rsstcp.Replicates(3),
//	).Run(rsstcp.CampaignOptions{})
type Campaign struct {
	plan campaign.Plan
	err  error
}

// CampaignOpt configures a Campaign under construction.
type CampaignOpt func(*Campaign)

// NewCampaign starts a generic campaign and applies the options in order.
// Construction errors (unknown axis or metric names, bad values) are
// deferred and reported by Run or Plan.
func NewCampaign(opts ...CampaignOpt) *Campaign {
	c := &Campaign{}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Sweep adds a stock axis by name (any of StockAxisNames()) from loosely
// typed values — native Go types or their string forms.
func Sweep(name string, values ...any) CampaignOpt {
	return func(c *Campaign) {
		a, err := campaign.NewAxis(name, values...)
		if err != nil {
			c.fail(err)
			return
		}
		c.plan.Axes = append(c.plan.Axes, a)
	}
}

// SweepAxis adds a prebuilt (possibly custom) axis.
func SweepAxis(axes ...Axis) CampaignOpt {
	return func(c *Campaign) {
		c.plan.Axes = append(c.plan.Axes, axes...)
	}
}

// Measure appends metrics to the campaign's report columns. Without any
// Measure option the stock set is reported.
func Measure(metrics ...Metric) CampaignOpt {
	return func(c *Campaign) {
		c.plan.Metrics = append(c.plan.Metrics, metrics...)
	}
}

// MeasureNamed appends registered metrics by name, in the order given.
func MeasureNamed(names ...string) CampaignOpt {
	return func(c *Campaign) {
		ms, err := campaign.MetricsByName(names...)
		if err != nil {
			c.fail(err)
			return
		}
		c.plan.Metrics = append(c.plan.Metrics, ms...)
	}
}

// Replicates sets the number of seeded repeats per cell (default 1).
func Replicates(n int) CampaignOpt {
	return func(c *Campaign) { c.plan.Replicates = n }
}

// Duration sets the virtual run length per replicate (default 25 s).
func Duration(d time.Duration) CampaignOpt {
	return func(c *Campaign) { c.plan.Duration = d }
}

// BaseSeed roots the derived replicate seeds (default 1). Seeds depend only
// on the base seed and each cell's canonical key, never on scheduling.
func BaseSeed(s uint64) CampaignOpt {
	return func(c *Campaign) { c.plan.BaseSeed = s }
}

// FromGrid seeds the campaign from a Grid: its seven fields become
// stock axes, and its replicate/duration/seed knobs carry over only where
// the grid actually sets them (zero grid fields never clobber values chosen
// by other options). Later options may add further axes and metrics on top.
func FromGrid(g Grid) CampaignOpt {
	return func(c *Campaign) {
		c.plan.Axes = append(c.plan.Axes, g.Axes()...)
		if g.Replicates > 0 {
			c.plan.Replicates = g.Replicates
		}
		if g.Duration > 0 {
			c.plan.Duration = g.Duration
		}
		if g.BaseSeed != 0 {
			c.plan.BaseSeed = g.BaseSeed
		}
	}
}

func (c *Campaign) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Plan returns the assembled plan, or the first construction error.
func (c *Campaign) Plan() (Plan, error) {
	if c.err != nil {
		return Plan{}, c.err
	}
	return c.plan, nil
}

// Run executes the campaign on a bounded worker pool. Aggregation streams:
// each finished replicate folds into its cell's running summaries and is
// dropped unless CampaignOptions.RetainRuns keeps it, so memory scales with
// the cell count, not the run count. Aggregated results are byte-identical
// regardless of the worker count.
func (c *Campaign) Run(opts CampaignOptions) (*Report, error) {
	if c.err != nil {
		return nil, c.err
	}
	return campaign.ExecutePlan(c.plan, opts)
}

// RunPlan executes a campaign plan directly — the non-builder entry point.
// See Campaign.Run for the streaming-aggregation behaviour.
func RunPlan(p Plan, opts CampaignOptions) (*Report, error) {
	return campaign.ExecutePlan(p, opts)
}
