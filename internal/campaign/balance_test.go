package campaign

import (
	"strings"
	"testing"
	"time"

	"rsstcp/internal/experiment"
)

// checkPartition asserts the cut points of a weighted partition form a
// contiguous, complete, non-overlapping cover of n cells: cuts[0] == 0,
// cuts[shards] == n, and the sequence is monotone. Cell alignment — a
// cell's replicates never straddling shards — is structural: cuts index
// whole cells, never replicates.
func checkPartition(t *testing.T, cuts []int, n, shards int) {
	t.Helper()
	if len(cuts) != shards+1 {
		t.Fatalf("%d cut points for %d shards, want %d", len(cuts), shards, shards+1)
	}
	if cuts[0] != 0 || cuts[shards] != n {
		t.Fatalf("cuts span [%d, %d], want [0, %d]", cuts[0], cuts[shards], n)
	}
	for k := 1; k <= shards; k++ {
		if cuts[k] < cuts[k-1] {
			t.Fatalf("cut %d = %d precedes cut %d = %d: overlap", k, cuts[k], k-1, cuts[k-1])
		}
	}
}

// TestWeightedCutsInvariants sweeps weight shapes — uniform, skewed, spiked,
// zero-weight cells, all-zero (fallback), and the degenerate 1-cell and
// shards > cells layouts — asserting full coverage with no overlap for
// every shard count.
func TestWeightedCutsInvariants(t *testing.T) {
	t.Parallel()
	shapes := map[string][]float64{
		"uniform":    {1, 1, 1, 1, 1, 1, 1},
		"ascending":  {1, 2, 3, 4, 5, 6, 7},
		"spike":      {1, 1, 1, 100, 1, 1, 1},
		"zero-cells": {0, 5, 0, 0, 5, 0, 5},
		"all-zero":   {0, 0, 0, 0, 0, 0, 0},
		"one-cell":   {42},
		"negative":   {-1, 3, -2, 3, 3}, // broken model: clamped, never loses cells
	}
	for name, weights := range shapes {
		for shards := 1; shards <= len(weights)+4; shards++ {
			cuts := cutsForWeights(weights, shards)
			checkPartition(t, cuts, len(weights), shards)
			if t.Failed() {
				t.Fatalf("shape %q, shards %d", name, shards)
			}
		}
	}
}

// TestWeightedCutsBalance: on a strongly skewed weight vector the weighted
// cuts isolate the heavy cells instead of splitting by count — the heaviest
// shard's weight share must beat the unweighted split's.
func TestWeightedCutsBalance(t *testing.T) {
	t.Parallel()
	// Ten cheap cells then two enormous ones: an unweighted 3-way split
	// gives the last shard both heavy cells.
	weights := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 50, 50}
	shards := 3
	share := func(cuts []int) float64 {
		var max float64
		for k := 0; k < shards; k++ {
			var s float64
			for i := cuts[k]; i < cuts[k+1]; i++ {
				s += weights[i]
			}
			if s > max {
				max = s
			}
		}
		return max
	}
	unweighted := make([]int, shards+1)
	for k := range unweighted {
		unweighted[k] = len(weights) * k / shards
	}
	w := share(cutsForWeights(weights, shards))
	u := share(unweighted)
	if w >= u {
		t.Fatalf("weighted max shard weight %v, unweighted %v: balance did not improve", w, u)
	}
}

// TestCellWeightModel pins the cost model's monotonicity: more virtual
// time, more flows, churn load, and deeper hop chains each weigh a cell
// heavier.
func TestCellWeightModel(t *testing.T) {
	t.Parallel()
	p := Plan{Duration: 5 * time.Second}.withDefaults()
	base := PlanCell{Config: experiment.Config{}}
	w0 := CellWeight(p, base)
	if w0 <= 0 {
		t.Fatalf("base weight %v, want > 0", w0)
	}
	longer := base
	longer.Config.Duration = 20 * time.Second
	manyFlows := base
	manyFlows.Config.Flows = make([]experiment.FlowSpec, 8)
	churny := base
	churny.Config.Churn = &experiment.ChurnSpec{Arrivals: "poisson:200"}
	deep := base
	deep.Config.Topology = &experiment.Topology{Hops: make([]experiment.Hop, 4)}
	for name, c := range map[string]PlanCell{
		"longer duration": longer,
		"more flows":      manyFlows,
		"churn arrivals":  churny,
		"deeper topology": deep,
	} {
		if w := CellWeight(p, c); w <= w0 {
			t.Errorf("%s: weight %v, want > base %v", name, w, w0)
		}
	}
}

// TestBalancedShardByteIdentity is the weighted-partition half of the shard
// determinism contract: the merged report is byte-identical to the
// unsharded run — for the naturally balanced churn plan and for a
// pathologically skewed flows axis, where the cuts move far from the count
// split — at several shard counts, each shard's report round-tripping the
// wire format.
func TestBalancedShardByteIdentity(t *testing.T) {
	t.Parallel()
	skewed := Plan{
		Axes: []Axis{
			stockAxis(t, "flows", 1, 2, 3, 4, 12),
			stockAxis(t, "alg", experiment.AlgStandard, experiment.AlgRestricted),
		},
		Metrics:    []Metric{MetricThroughputMbps, MetricUtilization},
		Replicates: 2,
		Duration:   time.Second,
	}
	for name, p := range map[string]Plan{"churn": churnPlan(t), "skewed": skewed} {
		base, err := ExecutePlan(p, Options{Workers: 4})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var want strings.Builder
		if err := base.WriteJSON(&want); err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{2, 3, 7} {
			rep, err := ExecuteSharded(p, shards, Options{Workers: 4})
			if err != nil {
				t.Fatalf("%s at %d shards: %v", name, shards, err)
			}
			var got strings.Builder
			if err := rep.WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() {
				t.Errorf("%s diverged at %d shards:\n%s",
					name, shards, firstDiff(want.String(), got.String()))
			}
		}
	}
}

// TestShardSpanBalancedCoverage: shardSpan partitions the real churn plan's
// cell list completely and contiguously at any shard count, including more
// shards than cells.
func TestShardSpanBalancedCoverage(t *testing.T) {
	t.Parallel()
	p := churnPlan(t).withDefaults()
	cells := p.Cells()
	for shards := 1; shards <= len(cells)+2; shards++ {
		next := 0
		for k := 0; k < shards; k++ {
			span := shardSpan(p, cells, shards, k)
			for _, c := range span {
				if c.Index != next {
					t.Fatalf("shards=%d shard=%d: cell %d, want %d (contiguous cover)",
						shards, k, c.Index, next)
				}
				next++
			}
		}
		if next != len(cells) {
			t.Fatalf("shards=%d: covered %d cells, want %d", shards, next, len(cells))
		}
	}
}
