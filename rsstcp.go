// Package rsstcp reproduces "Restricted Slow-Start for TCP" (Allcock,
// Hegde, Kettimuthu; IEEE CLUSTER 2005): a sender-side TCP modification in
// which a PID controller paces congestion-window growth during slow-start
// off the host network-interface-queue (IFQ) occupancy, preventing the
// send-stall signals that 2.4-era Linux treated as congestion.
//
// The package is the public face of a complete discrete-event reproduction
// stack: a virtual-time engine, network elements, a host NIC/IFQ model, a
// TCP sender/receiver with pluggable congestion control, the PID controller
// with Ziegler-Nichols autotuning, and Web100-style instrumentation. See
// DESIGN.md for the system inventory and EXPERIMENTS.md for paper-versus-
// measured results.
//
// Quick start:
//
//	res, err := rsstcp.Run(rsstcp.Options{
//		Path:  rsstcp.PaperPath(),
//		Flows: []rsstcp.Flow{{Alg: rsstcp.Restricted}},
//	})
//	fmt.Println(res.Throughput, res.Stalls)
//
// Parameter sweeps are Plan literals of axes and pluggable metrics, run by
// RunPlan; an axis carries its own construction error, which RunPlan
// reports. Grid is a struct shorthand that compiles the classic
// seven-dimension sweep to the same Plan (RunPlan(g.Plan(), opts)):
//
//	rep, err := rsstcp.RunPlan(rsstcp.Plan{
//		Axes: []rsstcp.Axis{
//			rsstcp.NewAxis("setpoint", 0.5, 0.7, 0.9),
//			rsstcp.NewAxis("alg", rsstcp.Restricted),
//		},
//		Metrics: []rsstcp.Metric{rsstcp.MetricThroughput, rsstcp.MetricFairness},
//	}, rsstcp.CampaignOptions{})
package rsstcp

import (
	"time"

	"rsstcp/internal/campaign"
	"rsstcp/internal/core"
	"rsstcp/internal/experiment"
	"rsstcp/internal/pid"
	"rsstcp/internal/unit"
	"rsstcp/internal/zntune"
)

// Re-exported core types. The facade is intentionally thin: the types ARE
// the experiment harness types, so results round-trip without translation.
type (
	// Algorithm selects a sender's congestion behaviour.
	Algorithm = experiment.Algorithm
	// Path describes the network (bottleneck, RTT, router buffer, NIC
	// rate, txqueuelen).
	Path = experiment.PathConfig
	// Flow describes one connection (algorithm, size, start, tuning).
	Flow = experiment.FlowSpec
	// Options describes a full run: path, flows, duration, seed.
	Options = experiment.Config
	// Result summarizes a measured flow (Web100 stats, throughput,
	// stalls, utilization).
	Result = experiment.Result
	// Scenario is a built testbed, for callers that need the components.
	Scenario = experiment.Scenario
	// Table is a rendered result grid with text and CSV output.
	Table = experiment.Table
	// Figure1Data carries the cumulative send-stall series of Figure 1.
	Figure1Data = experiment.Figure1Result
	// Churn describes a dynamic flow-lifecycle workload: an arrival
	// process, a transfer-size distribution, and the template the dynamic
	// flows are stamped from.
	Churn = experiment.ChurnSpec
	// FlowRecord is one completed dynamic flow: start/end times, bytes,
	// retransmissions, slowdown and size class.
	FlowRecord = experiment.FlowRecord
	// FCTSummary is the streaming digest of a run's completed dynamic
	// flows (Result.FCT): completion-time quantiles, slowdowns and totals
	// over the full population, independent of the RetainFlows record cap.
	FCTSummary = experiment.FCTSummary
	// Gains are PID parameters in the paper's standard form.
	Gains = pid.Gains
	// Critical is a Ziegler-Nichols critical point (Kc, Tc).
	Critical = pid.Critical
	// TuneRule names a gain-derivation rule ("paper", "classic", ...).
	TuneRule = pid.Rule
	// TuneResult is the outcome of a Ziegler-Nichols tuning session.
	TuneResult = zntune.Result
	// Bandwidth is a link or goodput rate in bits per second.
	Bandwidth = unit.Bandwidth
	// Grid declares a parameter sweep: the cartesian product of bandwidth,
	// RTT, queue, loss, algorithm and flow-count axes, with replicates.
	// Grid.Plan compiles it to a Plan.
	Grid = campaign.Grid
	// CampaignOptions tunes sweep execution (worker count, progress).
	CampaignOptions = campaign.Options
)

// Algorithms.
const (
	// Standard is 2.4-era Linux TCP, the paper's baseline.
	Standard = experiment.AlgStandard
	// Restricted is the paper's PID-paced slow-start.
	Restricted = experiment.AlgRestricted
	// Limited is RFC 3742 Limited Slow-Start.
	Limited = experiment.AlgLimited
	// StandardABC is standard slow-start with RFC 3465 byte counting.
	StandardABC = experiment.AlgStandardABC
	// HyStart is slow-start with the Hybrid Slow Start delay detector.
	HyStart = experiment.AlgHyStart
	// StallWait is the idealized no-collapse sender (ablation bound).
	StallWait = experiment.AlgStallWait
)

// Tuning rules.
const (
	RulePaper       = pid.RulePaper
	RuleClassic     = pid.RuleClassic
	RulePI          = pid.RulePI
	RuleNoOvershoot = pid.RuleNoOvershoot
)

// Bandwidth units.
const (
	Kbps = unit.Kbps
	Mbps = unit.Mbps
	Gbps = unit.Gbps
)

// PaperPath returns the testbed of the paper's Section 4: 100 Mbps,
// 60 ms RTT, txqueuelen 100.
func PaperPath() Path { return experiment.PaperPath() }

// DefaultCritical returns the Ziegler-Nichols critical point of the
// cwnd→IFQ loop that default-tuned restricted flows use on the paper path.
// It is a fixed constant, not what Tune measures there today (see
// core.DefaultCritical).
func DefaultCritical() Critical { return core.DefaultCritical }

// Run builds and executes a scenario, returning the primary flow's result.
func Run(opts Options) (Result, error) {
	s, err := experiment.Build(opts)
	if err != nil {
		return Result{}, err
	}
	return s.Run(), nil
}

// Build assembles a testbed without running it, for callers that want to
// attach probes or drive virtual time themselves.
func Build(opts Options) (*Scenario, error) { return experiment.Build(opts) }

// Figure1 regenerates the paper's Figure 1 (cumulative send-stall signals
// over time, standard vs restricted) on the given path.
func Figure1(path Path, duration time.Duration, seed uint64) (Figure1Data, error) {
	return experiment.Figure1(path, duration, seed)
}

// Tune runs the Ziegler-Nichols closed-loop procedure of Section 3 on the
// path and derives gains with the given rule.
func Tune(path Path, duration time.Duration, rule TuneRule) (TuneResult, Gains, error) {
	return experiment.Tune(path, duration, rule)
}

// DefaultCampaignWorkers returns the worker-pool size used when
// CampaignOptions.Workers is zero (GOMAXPROCS).
func DefaultCampaignWorkers() int { return campaign.DefaultWorkers() }

// Throughput measures one algorithm's goodput on the path.
func Throughput(path Path, alg Algorithm, duration time.Duration, seed uint64) (Bandwidth, error) {
	return experiment.ThroughputOf(path, alg, duration, seed)
}
