package rsstcp

import (
	"time"

	"rsstcp/internal/campaign"
	"rsstcp/internal/experiment"
)

// Topology-layer types, re-exported so callers describe multi-hop paths,
// congested reverse channels and per-flow routes without importing internal
// packages. The zero Options still runs the paper's dumbbell: PathConfig
// compiles into a one-hop topology with an ideal reverse wire.
type (
	// Topology is a declarative hop chain plus one reverse channel.
	Topology = experiment.Topology
	// Hop is one store-and-forward stage: rate, one-way delay, queue,
	// discipline (drop-tail or RED), and optional loss/reorder/duplicate
	// injectors.
	Hop = experiment.Hop
	// Reverse describes the ACK channel: zero Rate is the ideal pure-delay
	// wire; a non-zero Rate queues ACKs behind a real serializer.
	Reverse = experiment.Reverse
	// Route pins a flow to a contiguous hop span (zero value = whole path).
	Route = experiment.Route
	// HopStats is one hop's aggregate counters after a run.
	HopStats = experiment.HopStats
	// QueueDiscipline selects a hop queue's admission policy.
	QueueDiscipline = experiment.QueueDiscipline
)

// Queue disciplines.
const (
	// DropTailQueue is the classic FIFO tail-drop router queue (default).
	DropTailQueue = experiment.DiscDropTail
	// REDQueue is Random Early Detection.
	REDQueue = experiment.DiscRED
)

// NewTopology composes an explicit forward path from hops, with the ideal
// reverse wire; chain WithReverse for a real (rate-limited, queued) ACK
// channel:
//
//	topo := rsstcp.NewTopology(
//		rsstcp.HopAt(100*rsstcp.Mbps, 10*time.Millisecond, 250),
//		rsstcp.HopAt(50*rsstcp.Mbps, 20*time.Millisecond, 120),
//	).WithReverse(5*rsstcp.Mbps, 0, 50)
//	res, err := rsstcp.Run(rsstcp.Options{Topology: topo})
func NewTopology(hops ...Hop) *Topology {
	return &Topology{Hops: hops}
}

// HopAt builds a drop-tail hop from the three load-bearing parameters;
// set Discipline/Loss/ReorderP/DuplicateP on the result for more.
func HopAt(rate Bandwidth, delay time.Duration, queue int) Hop {
	return Hop{Rate: rate, Delay: delay, Queue: queue}
}

// HopSpan builds a route over n hops starting at first (n <= 0 means through
// the end of the path).
func HopSpan(first, n int) Route {
	return Route{FirstHop: first, Hops: n}
}

// CrossFlow builds a cross-traffic flow pinned to a hop span: background
// load that campaign per-flow axes leave untouched. A parking-lot middle-hop
// cross flow is CrossFlow(rsstcp.Standard, rsstcp.HopSpan(1, 1), time.Second).
func CrossFlow(alg Algorithm, r Route, start time.Duration) Flow {
	return Flow{Alg: alg, Cross: true, Route: r, StartAt: start}
}

// TopologyPresets lists the named stock topologies ("dumbbell",
// "parking-lot", "reverse-congested") accepted by ApplyPreset, the CLIs'
// -topo flags, and the "topo" campaign axis.
func TopologyPresets() []string { return experiment.TopologyPresets() }

// ApplyPreset imprints a named stock topology (and, for parking-lot, its
// cross traffic) on the options.
func ApplyPreset(opts *Options, name string) error {
	return experiment.ApplyPreset(opts, name)
}

// ParseHop parses a CLI -hop value ("rate=100,delay=10ms,queue=250[,aqm=red]
// [,loss=0.01][,reorder=0.02:2ms][,dup=0.001]", rate in Mbps).
func ParseHop(s string) (Hop, error) { return campaign.ParseHop(s) }

// ParseReverse parses a CLI -rev value ("rate=10[,delay=30ms][,queue=50]",
// rate in Mbps).
func ParseReverse(s string) (Reverse, error) { return campaign.ParseReverse(s) }

// TopologyAxis builds a single-valued "topo" axis from an explicit topology,
// labeled for the cell key — how a plan pins a custom hop graph built with
// NewTopology (stock presets sweep by name: NewAxis("topo", ...)). Being
// named "topo", it falls under that axis's rule: no path axes beside it,
// rbw/aqm after it.
func TopologyAxis(label string, t Topology) Axis {
	return campaign.AxisTopologyValue(label, t)
}

// ReverseAxis builds a single-valued "rbw" axis from a full reverse-channel
// description (rate + delay + queue) — the campaign form of a CLI -rev flag.
func ReverseAxis(r Reverse) Axis {
	return campaign.AxisReverseValue(r)
}
