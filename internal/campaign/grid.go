package campaign

import (
	"time"

	"rsstcp/internal/experiment"
	"rsstcp/internal/sim"
	"rsstcp/internal/unit"
)

// Grid declares the classic seven-dimension sweep as a struct and compiles
// it to a Plan; it has no execution or result shape of its own. An empty
// field collapses to the paper-path value for that parameter, so the zero
// Grid is standard vs restricted on the Section 4 testbed.
type Grid struct {
	// Bandwidths are the bottleneck rates to sweep.
	Bandwidths []unit.Bandwidth
	// RTTs are the round-trip propagation delays.
	RTTs []time.Duration
	// RouterQueues are bottleneck buffer sizes in packets.
	RouterQueues []int
	// TxQueueLens are sender IFQ capacities in packets.
	TxQueueLens []int
	// LossRates are independent drop probabilities at the bottleneck
	// ingress; non-zero rates make replicates statistically distinct.
	LossRates []float64
	// Algorithms are the slow-start schemes to compare.
	Algorithms []experiment.Algorithm
	// FlowCounts are the number of concurrent same-algorithm flows (each
	// on its own host) sharing the bottleneck.
	FlowCounts []int
	// Replicates runs each cell this many times with distinct derived
	// seeds (default 1).
	Replicates int
	// Duration is the virtual run length per replicate (default 25 s).
	Duration time.Duration
	// BaseSeed roots every derived replicate seed (default 1).
	BaseSeed uint64
}

func (g Grid) withDefaults() Grid {
	paper := experiment.PaperPath()
	if len(g.Bandwidths) == 0 {
		g.Bandwidths = []unit.Bandwidth{paper.Bottleneck}
	}
	if len(g.RTTs) == 0 {
		g.RTTs = []time.Duration{paper.RTT}
	}
	if len(g.RouterQueues) == 0 {
		g.RouterQueues = []int{paper.RouterQueue}
	}
	if len(g.TxQueueLens) == 0 {
		g.TxQueueLens = []int{paper.TxQueueLen}
	}
	if len(g.LossRates) == 0 {
		g.LossRates = []float64{0}
	}
	if len(g.Algorithms) == 0 {
		g.Algorithms = []experiment.Algorithm{experiment.AlgStandard, experiment.AlgRestricted}
	}
	if len(g.FlowCounts) == 0 {
		g.FlowCounts = []int{1}
	}
	return g
}

// Plan compiles the grid to a campaign plan: the seven fixed fields become
// stock axes in canonical order — bandwidth outermost, then RTT, router
// queue, txqueuelen, loss, algorithm, and flow count innermost — plus the
// stock metrics. Replicates, Duration and BaseSeed pass through as they are:
// the plan defaults their zeros and Plan.Compile refuses what is out of
// domain, every cell included, before anything runs.
func (g Grid) Plan() Plan {
	g = g.withDefaults()
	return Plan{
		Axes: []Axis{
			dimBW.axis(g.Bandwidths...),
			dimRTT.axis(g.RTTs...),
			dimRQ.axis(g.RouterQueues...),
			dimIFQ.axis(g.TxQueueLens...),
			dimLoss.axis(g.LossRates...),
			dimAlg.axis(g.Algorithms...),
			dimFlows.axis(g.FlowCounts...),
		},
		Metrics:    StockMetrics(),
		Replicates: g.Replicates,
		Duration:   g.Duration,
		BaseSeed:   g.BaseSeed,
	}
}

// DeriveSeed maps (base seed, cell key, replicate index) to a replicate
// seed: an FNV-1a digest of the key and replicate folded into the base,
// then finalized with the splitmix64 mixer so near-identical keys land far
// apart. The result is never zero (zero means "use the default seed"
// downstream).
func DeriveSeed(base uint64, key string, replicate int) uint64 {
	return mixSeed(base, keyDigest(key), replicate)
}

const fnvPrime = 1099511628211

// keyDigest is DeriveSeed's FNV-1a pass over the key, shared by its replicates.
func keyDigest(key string) uint64 {
	h := uint64(1469598103934665603) // FNV-1a offset basis
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime
	}
	return h
}

// mixSeed is DeriveSeed's per-replicate part, from the key's digest on.
func mixSeed(base, h uint64, replicate int) uint64 {
	h ^= uint64(replicate) + 0x9e3779b97f4a7c15
	h *= fnvPrime
	h = sim.Mix64(h ^ base)
	if h == 0 {
		h = 0x9e3779b97f4a7c15
	}
	return h
}
