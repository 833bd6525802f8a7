package campaign

// Weighted shard partitioning: a contiguous len*k/N cell split treats
// every cell as equally expensive, so heterogeneous grids (mixed flow
// counts, durations, hop depths) leave some shard processes idle while the
// one that drew the heavy cells finishes alone. The partition is contiguous
// and cell-aligned — which is all the merge contract needs, so output is
// byte-identical at any shard count — with the cut points placed by
// cumulative estimated cost instead of cell count.
//
// The cost model is deliberately a pure function of the plan and the cell's
// pre-seed Config: every participating process re-derives the identical
// partition from the identical flags, with no coordination beyond the
// (shards, shard) pair. Absolute accuracy is not required — only the
// *relative* weights matter, and the campaign epilogue echoes the slowest
// cells' measured wall times (see SelfMetrics.SlowestCells) so the model
// can be sanity-checked against a prior run's telemetry tail.

import (
	"rsstcp/internal/experiment"
	"rsstcp/internal/lifecycle"
)

// CellWeight estimates the relative per-replicate cost of one plan cell in
// arbitrary units (roughly "flow-seconds of simulated traffic"). Events per
// run scale with the virtual duration, the number of concurrently active
// flows (static list plus churn arrivals), and the hop count each segment
// traverses; the model multiplies those three.
func CellWeight(p Plan, c PlanCell) float64 {
	cfg := c.Config
	dur := p.Duration
	if cfg.Duration > 0 {
		dur = cfg.Duration
	}
	sec := dur.Seconds()
	if sec <= 0 {
		sec = 1
	}
	flows := float64(len(cfg.Flows))
	if flows == 0 {
		flows = 1
	}
	flows += churnLoad(cfg)
	hops := 1.0
	if cfg.Topology != nil && len(cfg.Topology.Hops) > 0 {
		hops = float64(len(cfg.Topology.Hops))
	}
	// Extra hops add per-segment work but not per-flow protocol work, so
	// they weigh in at half a first-hop each.
	return sec * flows * (1 + 0.5*(hops-1))
}

// churnLoad converts a cell's churn spec into a static-flow equivalent: the
// long-run arrival rate in flows/sec stands in for the extra concurrent
// population the arrivals sustain. An unparseable spec (it would fail the
// build anyway) weighs like the default source.
func churnLoad(cfg experiment.Config) float64 {
	ch := cfg.Churn
	if ch == nil {
		return 0
	}
	if ch.Load > 0 {
		// A load-driven cell rescales its arrival rate to hit this fraction
		// of the bottleneck; the fraction itself is the natural relative
		// weight across load cells (scaled to the default source's rate so
		// load and explicit-rate cells share units).
		return 100 * ch.Load
	}
	spec := ch.Arrivals
	if spec == "" {
		spec = "poisson:100"
	}
	src, err := lifecycle.ParseSource(spec)
	if err != nil {
		return 100
	}
	return src.Rate()
}

// cutsForWeights returns the shards+1 cut points of the weighted contiguous
// partition: cut k is the smallest index i whose weight prefix sum reaches
// total*k/shards. The cuts are monotone by construction (the targets
// increase, the prefix is non-decreasing) and cover every cell exactly
// once. Negative or NaN weights (a broken cost model) count as zero, and
// zero total weight falls back to the count split len*k/shards: a garbage
// model must never cost coverage, only balance.
func cutsForWeights(weights []float64, shards int) []int {
	n := len(weights)
	prefix := make([]float64, n+1)
	for i, w := range weights {
		if w < 0 || w != w {
			w = 0
		}
		prefix[i+1] = prefix[i] + w
	}
	cuts := make([]int, shards+1)
	total := prefix[n]
	if !(total > 0) {
		for k := range cuts {
			cuts[k] = n * k / shards
		}
		return cuts
	}
	i := 0
	for k := 1; k < shards; k++ {
		target := total * float64(k) / float64(shards)
		for i < n && prefix[i] < target {
			i++
		}
		cuts[k] = i
	}
	cuts[shards] = n
	return cuts
}

// shardSpan returns shard k's contiguous span of the canonical cell list,
// cut by CellWeight. The weights depend only on the plan, so every process
// computes the same partition, and the partition is cell-aligned — a cell's
// replicates never straddle shards — so MergeShards reassembles
// byte-identical output.
func shardSpan(p Plan, cells []PlanCell, shards, shard int) []PlanCell {
	weights := make([]float64, len(cells))
	for i := range cells {
		weights[i] = CellWeight(p, cells[i])
	}
	cuts := cutsForWeights(weights, shards)
	return cells[cuts[shard]:cuts[shard+1]]
}
