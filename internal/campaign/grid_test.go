package campaign

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"rsstcp/internal/experiment"
	"rsstcp/internal/unit"
)

func sweepGrid() Grid {
	return Grid{
		Bandwidths:  []unit.Bandwidth{10 * unit.Mbps, 100 * unit.Mbps, 500 * unit.Mbps},
		RTTs:        []time.Duration{20 * time.Millisecond, 60 * time.Millisecond},
		TxQueueLens: []int{50, 100},
		Algorithms:  []experiment.Algorithm{experiment.AlgStandard, experiment.AlgRestricted},
		Replicates:  2,
		Duration:    2 * time.Second,
	}
}

func TestGridExpansionOrderAndSize(t *testing.T) {
	p := sweepGrid().Plan()
	cells := p.Cells()
	if len(cells) != 3*2*2*2 {
		t.Fatalf("cells = %d, want 24", len(cells))
	}
	if p.Runs() != 48 {
		t.Errorf("runs = %d, want 48", p.Runs())
	}
	// Canonical order: bandwidth outermost, flow count innermost.
	if cells[0].Config.Path.Bottleneck != 10*unit.Mbps || cells[0].Config.Flows[0].Alg != experiment.AlgStandard {
		t.Errorf("first cell = %+v", cells[0])
	}
	if cells[1].Config.Flows[0].Alg != experiment.AlgRestricted {
		t.Errorf("algorithm must vary fastest among the set axes, got %+v", cells[1])
	}
	last := cells[len(cells)-1].Config
	if last.Path.Bottleneck != 500*unit.Mbps || last.Path.TxQueueLen != 100 {
		t.Errorf("last cell = %+v", last)
	}
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d carries index %d", i, c.Index)
		}
	}
}

func TestGridDefaultsCollapseToPaperPath(t *testing.T) {
	cells := Grid{}.Plan().Cells()
	if len(cells) != 2 { // standard + restricted on the paper path
		t.Fatalf("cells = %d, want 2", len(cells))
	}
	if got, paper := cells[0].Config.Path, experiment.PaperPath(); got != paper {
		t.Errorf("default cell path = %+v, want paper path %+v", got, paper)
	}
}

// TestGridNegativeCountsRejected: a Grid hands Replicates and Duration to
// its Plan as they are, so a negative one fails Validate and ExecutePlan.
// Grid used to default them a second time, and ran one replicate of 25 s.
func TestGridNegativeCountsRejected(t *testing.T) {
	for _, row := range []struct {
		g    Grid
		want string
	}{
		{Grid{Replicates: -3, Duration: 10 * time.Millisecond}, "negative replicate count -3"},
		{Grid{Duration: -time.Second}, "negative run duration -1s"},
	} {
		if err := row.g.Plan().Validate(); err == nil || !strings.Contains(err.Error(), row.want) {
			t.Errorf("%+v: Validate = %v, want %q", row.g, err, row.want)
		}
		if _, err := ExecutePlan(row.g.Plan(), Options{}); err == nil || !strings.Contains(err.Error(), row.want) {
			t.Errorf("%+v: ExecutePlan = %v, want %q", row.g, err, row.want)
		}
	}
}

func TestGridValidate(t *testing.T) {
	bad := []Grid{
		{Bandwidths: []unit.Bandwidth{-1}},
		{RTTs: []time.Duration{0, time.Millisecond}},
		{RouterQueues: []int{-5}},
		{TxQueueLens: []int{0, 10}},
		{LossRates: []float64{1.5}},
		{LossRates: []float64{-0.1}},
		{Algorithms: []experiment.Algorithm{"bogus"}},
		{FlowCounts: []int{0}},
		{LossRates: []float64{math.NaN()}},
	}
	for i, g := range bad {
		if err := compileErr(g.Plan()); err == nil {
			t.Errorf("grid %d accepted: %+v", i, g)
		}
	}
	if err := sweepGrid().Plan().Validate(); err != nil {
		t.Errorf("valid grid rejected: %v", err)
	}
}

func TestCellKeyUniqueAndStable(t *testing.T) {
	cells := sweepGrid().Plan().Cells()
	seen := map[string]int{}
	for _, c := range cells {
		if prev, dup := seen[c.Key]; dup {
			t.Fatalf("cells %d and %d share key %q", prev, c.Index, c.Key)
		}
		seen[c.Key] = c.Index
	}
	// The key must not depend on expansion order (only on parameters).
	again := sweepGrid().Plan().Cells()
	for i := range cells {
		if cells[i].Key != again[i].Key {
			t.Fatalf("key unstable across expansions: %q vs %q", cells[i].Key, again[i].Key)
		}
	}
}

// TestReplicateSeedsNeverCollide is the satellite determinism requirement:
// across a realistic grid, every (cell, replicate) pair must get its own
// seed, and the same pair must always get the same seed.
func TestReplicateSeedsNeverCollide(t *testing.T) {
	g := sweepGrid()
	g.LossRates = []float64{0, 0.001, 0.01}
	g.Replicates = 8
	p := g.Plan()
	cells := p.Cells()
	seeds := map[uint64]string{}
	for _, c := range cells {
		for rep := 0; rep < g.Replicates; rep++ {
			cfg := p.Config(c, rep)
			if cfg.Seed == 0 {
				t.Fatalf("zero seed for %s rep %d (would collapse to the default)", c.Key, rep)
			}
			who := fmt.Sprintf("%s#%d", c.Key, rep)
			if prev, dup := seeds[cfg.Seed]; dup {
				t.Fatalf("seed %d shared by %s and %s", cfg.Seed, prev, who)
			}
			seeds[cfg.Seed] = who
			if again := p.Config(c, rep); again.Seed != cfg.Seed {
				t.Fatalf("seed not stable for %s", who)
			}
		}
	}
	if len(seeds) != len(cells)*g.Replicates {
		t.Fatalf("seeds = %d, want %d", len(seeds), len(cells)*g.Replicates)
	}
}

func TestDeriveSeedSensitivity(t *testing.T) {
	base := DeriveSeed(1, "a", 0)
	if DeriveSeed(2, "a", 0) == base {
		t.Error("base seed ignored")
	}
	if DeriveSeed(1, "b", 0) == base {
		t.Error("key ignored")
	}
	if DeriveSeed(1, "a", 1) == base {
		t.Error("replicate ignored")
	}
}

func TestConfigBuildsRequestedFlows(t *testing.T) {
	p := Grid{FlowCounts: []int{3}, Algorithms: []experiment.Algorithm{experiment.AlgRestricted}}.Plan()
	cells := p.Cells()
	if len(cells) != 1 {
		t.Fatalf("cells = %d, want 1", len(cells))
	}
	cfg := p.Config(cells[0], 0)
	if len(cfg.Flows) != 3 {
		t.Fatalf("flows = %d, want 3", len(cfg.Flows))
	}
	for _, f := range cfg.Flows {
		if f.Alg != experiment.AlgRestricted {
			t.Errorf("flow alg = %q", f.Alg)
		}
	}
}
