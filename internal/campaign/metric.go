package campaign

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"rsstcp/internal/experiment"
)

// Metric is a named per-replicate extractor: it reads one scalar from a
// finished run's Result (the measured flow's summary, which also carries
// scenario-global fields — utilization, drop counters, per-flow throughputs
// and cross-flow totals). The engine summarizes each metric over a cell's
// replicates, so a campaign reports a caller-chosen metric set instead of a
// fixed struct.
type Metric struct {
	// Name is the column/JSON name, e.g. "throughput_mbps".
	Name string
	// Extract reads the metric from one replicate's (borrowed) result.
	Extract func(*experiment.Result) float64
	// NeedsTrace forces campaigns measuring this metric to record gauge
	// series. Every stock metric reads running counters and leaves it
	// false, so campaigns run traceless — no sampling ticker, no series
	// memory. A custom metric that reads Result.Rec series must set it.
	NeedsTrace bool
}

// Stock metrics. The first six are the default set (StockMetrics); the rest
// are further figures of merit a plan can ask for by name.
var (
	// MetricThroughputMbps is aggregate goodput over all flows, Mbps.
	MetricThroughputMbps = Metric{
		Name: "throughput_mbps",
		Extract: func(r *experiment.Result) float64 {
			var bps float64
			for _, tp := range r.FlowThroughputs {
				bps += float64(tp)
			}
			return bps / 1e6
		},
	}
	// MetricStalls is the send-stall count summed over all flows.
	MetricStalls = Metric{
		Name:    "stalls",
		Extract: func(r *experiment.Result) float64 { return float64(r.Totals.Stalls) },
	}
	// MetricCongSignals is the congestion-episode count over all flows.
	MetricCongSignals = Metric{
		Name:    "cong_signals",
		Extract: func(r *experiment.Result) float64 { return float64(r.Totals.CongSignals) },
	}
	// MetricRouterDrops counts segments dropped at the bottleneck buffer.
	MetricRouterDrops = Metric{
		Name:    "router_drops",
		Extract: func(r *experiment.Result) float64 { return float64(r.RouterDrops) },
	}
	// MetricInjectedDrops counts segments discarded by the loss injector.
	MetricInjectedDrops = Metric{
		Name:    "injected_drops",
		Extract: func(r *experiment.Result) float64 { return float64(r.InjectedDrops) },
	}
	// MetricUtilization is the bottleneck's cumulative busy fraction.
	MetricUtilization = Metric{
		Name:    "utilization",
		Extract: func(r *experiment.Result) float64 { return r.Utilization },
	}
	// MetricTimeouts is the RTO count summed over all flows.
	MetricTimeouts = Metric{
		Name:    "timeouts",
		Extract: func(r *experiment.Result) float64 { return float64(r.Totals.Timeouts) },
	}
	// MetricFairness is Jain's fairness index over per-flow goodputs:
	// (Σx)² / (n·Σx²), 1.0 when all flows share equally, 1/n when one
	// flow starves the rest. The degenerate all-zero cell (e.g. a
	// 100%-loss sweep) is 0/0; it is defined as 1.0 — an equal (if
	// empty) share — so starvation is never conflated with "no data
	// moved" and the value can never be NaN. A cell with no flows
	// scores 0. Pinned by TestFairnessAllZeroGoodput and the 100%-loss
	// WriteJSON regression.
	MetricFairness = Metric{
		Name: "fairness",
		Extract: func(r *experiment.Result) float64 {
			var sum, sumsq float64
			for _, tp := range r.FlowThroughputs {
				x := float64(tp)
				sum += x
				sumsq += x * x
			}
			n := float64(len(r.FlowThroughputs))
			if n == 0 {
				return 0
			}
			if sumsq == 0 {
				return 1
			}
			return sum * sum / (n * sumsq)
		},
	}
	// MetricCollapses counts send-stall-induced cwnd collapses (Web100
	// LocalCongCwnd) over all flows — the failure mode restricted
	// slow-start exists to eliminate.
	MetricCollapses = Metric{
		Name:    "collapses",
		Extract: func(r *experiment.Result) float64 { return float64(r.Totals.Collapses) },
	}
	// MetricTimeToUtil90 is the virtual time, in seconds, at which the
	// bottleneck's cumulative utilization first reached 90% — a ramp-speed
	// figure of merit for slow-start schemes. Runs that never get there
	// score the full run duration. It reads the link's running counter
	// mark (Result.TimeToUtil90: the latched instant, or -1 when the mark
	// never tripped), traced or not, so its values never depend on whether
	// some other plan metric forced tracing.
	MetricTimeToUtil90 = Metric{
		Name: "t90_util_s",
		Extract: func(r *experiment.Result) float64 {
			if r.TimeToUtil90 > 0 {
				return r.TimeToUtil90.Seconds()
			}
			return r.Duration.Seconds()
		},
	}
	// MetricHopDropsMax is the largest per-hop queue-refusal count (tail or
	// AQM discard) over the forward hops — it localizes which stage of a
	// multi-bottleneck path is shedding load, where router_drops only
	// totals. On a one-hop dumbbell the two coincide.
	MetricHopDropsMax = Metric{
		Name: "hop_drops_max",
		Extract: func(r *experiment.Result) float64 {
			var max int64
			for _, h := range r.Hops {
				if h.Drops > max {
					max = h.Drops
				}
			}
			return float64(max)
		},
	}
	// MetricReverseDrops counts ACKs refused by the reverse channel's
	// queue — zero on the ideal reverse wire, the figure of merit for
	// asymmetric-path (ACK compression) sweeps.
	MetricReverseDrops = Metric{
		Name:    "rev_drops",
		Extract: func(r *experiment.Result) float64 { return float64(r.ReverseDrops) },
	}
	// MetricFCTMean is the mean flow completion time, in seconds, over the
	// run's completed dynamic flows (NaN when the run had none — the
	// NaN-tolerant exports render it null). Like every completion metric
	// below it reads the streaming Result.FCT digest, which covers the full
	// population even when RetainFlows capped the record list and is nil
	// exactly when nothing completed.
	MetricFCTMean = Metric{
		Name: "fct_mean",
		Extract: func(r *experiment.Result) float64 {
			if r.FCT == nil {
				return math.NaN()
			}
			return r.FCT.Mean
		},
	}
	// MetricFCTP99 is the 99th-percentile flow completion time in seconds —
	// the tail figure short-flow studies care about (NaN with no flows).
	// It is exact (sorted-sample linear interpolation) through the first
	// 4096 completions and a deterministic P² estimate beyond.
	MetricFCTP99 = Metric{
		Name: "fct_p99",
		Extract: func(r *experiment.Result) float64 {
			if r.FCT == nil {
				return math.NaN()
			}
			return r.FCT.P99
		},
	}
	// MetricSlowdownMean is the mean slowdown — completion time over the
	// ideal transfer time at the route's bottleneck rate — across completed
	// dynamic flows. 1.0 is a perfect network; the gap above it is queueing
	// and loss recovery (NaN with no flows).
	MetricSlowdownMean = Metric{
		Name:    "slowdown_mean",
		Extract: func(r *experiment.Result) float64 { return meanSlowdown(r, -1) },
	}
	// MetricSlowdownSmall is the mean slowdown of flows under 100 kB — the
	// mice whose FCT restricted slow-start claims to protect.
	MetricSlowdownSmall = Metric{
		Name:    "slowdown_small",
		Extract: func(r *experiment.Result) float64 { return meanSlowdown(r, 0) },
	}
	// MetricSlowdownMedium is the mean slowdown of flows in [100 kB, 1 MB).
	MetricSlowdownMedium = Metric{
		Name:    "slowdown_medium",
		Extract: func(r *experiment.Result) float64 { return meanSlowdown(r, 1) },
	}
	// MetricSlowdownLarge is the mean slowdown of flows of 1 MB and above.
	MetricSlowdownLarge = Metric{
		Name:    "slowdown_large",
		Extract: func(r *experiment.Result) float64 { return meanSlowdown(r, 2) },
	}
	// MetricFlowsDone counts dynamic flows that ran to byte-completion
	// within the run (0, not NaN, for static runs — "no churn" and "no
	// completions under churn" both mean zero finished transfers).
	MetricFlowsDone = Metric{
		Name: "flows_done",
		Extract: func(r *experiment.Result) float64 {
			if r.FCT == nil {
				return 0
			}
			return float64(r.FCT.Count)
		},
	}
	// MetricFlowsRefused counts arrivals turned away by the churn
	// population cap (ChurnSpec.MaxLive) — the admission-control loss a
	// many-flows density sweep trades against per-flow completion time.
	// Zero, not NaN, without churn: an uncapped or static run refuses
	// nothing.
	MetricFlowsRefused = Metric{
		Name:    "flows_refused",
		Extract: func(r *experiment.Result) float64 { return float64(r.FlowsRefused) },
	}
	// MetricIFQMax is the measured flow's sender-IFQ high-water mark in
	// packets: how close the RSS set point lets the queue come to
	// txqueuelen (the paper suite's T5 and T8).
	MetricIFQMax = Metric{
		Name:    "ifq_max",
		Extract: func(r *experiment.Result) float64 { return float64(r.NIC.MaxQueue) },
	}
)

// meanSlowdown reads the digest's mean of FlowRecord.Slowdown over completed
// flows, for one size class or (-1) all of them. NaN when no flow matches.
func meanSlowdown(r *experiment.Result, class int) float64 {
	switch {
	case r.FCT == nil:
		return math.NaN()
	case class < 0:
		return r.FCT.SlowdownMean
	case r.FCT.Class[class].Count == 0:
		return math.NaN()
	}
	return r.FCT.Class[class].SlowdownMean
}

// StockMetrics returns the default metric set, in column order. The Plan
// golden pins both the set and the order.
func StockMetrics() []Metric {
	return []Metric{
		MetricThroughputMbps, MetricStalls, MetricCongSignals,
		MetricRouterDrops, MetricInjectedDrops, MetricUtilization,
	}
}

// Metrics lists every registered metric, stock set first.
func Metrics() []Metric {
	return []Metric{
		MetricThroughputMbps, MetricStalls, MetricCongSignals,
		MetricRouterDrops, MetricInjectedDrops, MetricUtilization,
		MetricTimeouts, MetricFairness, MetricCollapses, MetricTimeToUtil90,
		MetricHopDropsMax, MetricReverseDrops,
		MetricFCTMean, MetricFCTP99, MetricSlowdownMean,
		MetricSlowdownSmall, MetricSlowdownMedium, MetricSlowdownLarge,
		MetricFlowsDone, MetricFlowsRefused, MetricIFQMax,
	}
}

// MetricNames lists the registered metric names, sorted.
func MetricNames() []string {
	ms := Metrics()
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name
	}
	sort.Strings(names)
	return names
}

// MetricsByName resolves registered metrics in the order requested — the
// CLI's -metrics flag selects and orders output columns with it.
func MetricsByName(names ...string) ([]Metric, error) {
	byName := map[string]Metric{}
	for _, m := range Metrics() {
		byName[m.Name] = m
	}
	out := make([]Metric, 0, len(names))
	for _, n := range names {
		m, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("campaign: unknown metric %q (known: %s)",
				n, strings.Join(MetricNames(), ", "))
		}
		out = append(out, m)
	}
	return out, nil
}
