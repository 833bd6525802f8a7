package campaign

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"time"

	"rsstcp/internal/experiment"
	"rsstcp/internal/stats"
	"rsstcp/internal/web100"
)

// recyclePlan puts parking-lot cells (three hops, so HopDrops is set) before
// dumbbell cells (none), with a replicate count that no span length divides:
// spans straddle cells and topologies, and a parking-lot span's buffers come
// back to serve dumbbell runs. Loss on every hop makes replicates differ.
func recyclePlan(t testing.TB) Plan {
	lossy := func(preset string) Value {
		return Val(preset, func(c *experiment.Config) {
			if err := experiment.ApplyPreset(c, preset); err != nil {
				t.Fatal(err)
			}
			for i := range c.Topology.Hops {
				c.Topology.Hops[i].Loss = 0.02
			}
		})
	}
	p := Plan{
		Axes: []Axis{
			{Name: "shape", Values: []Value{lossy("parking-lot"), lossy("dumbbell")}},
			stockAxis(t, "alg", experiment.AlgStandard, experiment.AlgRestricted),
		},
		Metrics:    []Metric{MetricThroughputMbps, MetricHopDropsMax, MetricCongSignals},
		Replicates: 13,
		Duration:   500 * time.Millisecond,
		BaseSeed:   5,
	}
	if _, err := p.Compile(); err != nil {
		t.Fatal(err)
	}
	return p.withDefaults()
}

// dumbbell reports whether plan cell c is one of recyclePlan's one-hop cells.
func dumbbell(c PlanCell) bool { return c.Labels[0] == "shape=dumbbell" }

// soloRuns runs every replicate of the plan as a span of one on a fresh
// context with no free list — the reference no buffer was ever recycled
// into.
func soloRuns(t *testing.T, p Plan, cells []PlanCell, web bool) []Replicate {
	t.Helper()
	env := &execEnv{p: p, cells: cells, opts: Options{ExportWeb100: web}, self: NewSelfMetrics()}
	out := make([]Replicate, len(cells)*p.Replicates)
	for g := range out {
		var rc runContext
		out[g] = rc.runSpan(env, g, g+1).reps[0]
	}
	return out
}

// sameReplicate compares two replicates field by field, Values bit for bit
// (a NaN metric equals itself).
func sameReplicate(a, b Replicate) bool {
	return a.Run == b.Run && slices.Equal(a.HopDrops, b.HopDrops) &&
		slices.EqualFunc(a.Values, b.Values, func(x, y stats.JSONFloat) bool {
			return math.Float64bits(float64(x)) == math.Float64bits(float64(y))
		}) &&
		reflect.DeepEqual(a.Web100, b.Web100)
}

// TestSpanBufferRecyclingMatchesSoloRuns runs recyclePlan at one and three
// workers, with RetainRuns and ExportWeb100 each on and off. Every value the
// collector folds and every retained run must equal the solo reference, no
// dumbbell run may carry HopDrops, and the exports must not depend on the
// worker count.
func TestSpanBufferRecyclingMatchesSoloRuns(t *testing.T) {
	t.Parallel()
	p := recyclePlan(t)
	cells := p.Cells()
	for _, web := range []bool{false, true} {
		want := soloRuns(t, p, cells, web)
		for _, retain := range []bool{false, true} {
			var exports []string
			for _, workers := range []int{1, 3} {
				opts := Options{Workers: workers, RetainRuns: retain, ExportWeb100: web}
				run := fmt.Sprintf("workers=%d retain=%v web100=%v", workers, retain, web)
				onCell := func(ci int, accs []stats.Accumulator) {
					for mi := range accs {
						exact := accs[mi].State().Exact
						for ri, x := range exact {
							w := want[ci*p.Replicates+ri].Values[mi]
							if x != strconv.FormatFloat(float64(w), 'x', -1, 64) {
								t.Errorf("%s: cell %s metric %d replicate %d folded %s, solo run %v",
									run, cells[ci].Key, mi, ri, x, w)
							}
						}
						if len(exact) != p.Replicates {
							t.Errorf("%s: cell %s folded %d values, want %d", run, cells[ci].Key, len(exact), p.Replicates)
						}
					}
				}
				out := executeCells(p, cells, opts, onCell)
				for ci, c := range out {
					if retain != (len(c.Runs) == p.Replicates) || !retain && c.Runs != nil {
						t.Fatalf("%s: cell %s retained %d runs", run, c.Key, len(c.Runs))
					}
					for ri, r := range c.Runs {
						if dumbbell(cells[ci]) && r.HopDrops != nil {
							t.Errorf("%s: dumbbell cell %s replicate %d carries hop drops %v", run, c.Key, ri, r.HopDrops)
						}
						if w := want[ci*p.Replicates+ri]; !sameReplicate(r, w) {
							t.Errorf("%s: cell %s replicate %d differs from its solo run\n got: %+v\nwant: %+v", run, c.Key, ri, r, w)
						}
					}
				}
				j, c := render(t, &Report{Plan: p, Cells: out})
				exports = append(exports, j+c)
			}
			if exports[0] != exports[1] {
				t.Errorf("web100=%v retain=%v: exports differ between 1 and 3 workers", web, retain)
			}
		}
	}
}

// TestRecycledSpanStartsClean hands a worker, through the free list, the
// buffers of a parking-lot span whose replicates also carry Web100 blocks,
// and has it run dumbbell replicates into them: the worker must reuse the
// arrays, and each run must come out as its solo run — no stale HopDrops,
// and Web100 only under ExportWeb100.
func TestRecycledSpanStartsClean(t *testing.T) {
	t.Parallel()
	p := recyclePlan(t)
	cells := p.Cells()
	n := 2 * p.Replicates // the two parking-lot cells, then the two dumbbell cells
	for _, web := range []bool{false, true} {
		want := soloRuns(t, p, cells, web)
		env := &execEnv{p: p, cells: cells, opts: Options{ExportWeb100: web}, self: NewSelfMetrics(), free: make(chan spanBufs, 1)}
		var rc runContext
		lot := rc.runSpan(env, 0, n)
		for i := range lot.reps {
			if len(lot.reps[i].HopDrops) != 3 {
				t.Fatalf("parking-lot replicate %d: hop drops %v, want 3 entries", i, lot.reps[i].HopDrops)
			}
			lot.reps[i].Web100 = make([]web100.Export, 1)
		}
		env.free <- lot.spanBufs
		bell := rc.runSpan(env, n, 2*n)
		if &bell.reps[0] != &lot.reps[0] || &bell.values[0] != &lot.values[0] {
			t.Fatal("the worker did not reuse the recycled span buffers")
		}
		for i, r := range bell.reps {
			if r.HopDrops != nil || (!web && r.Web100 != nil) {
				t.Errorf("web100=%v: dumbbell replicate %d kept hop drops %v / %d Web100 blocks", web, i, r.HopDrops, len(r.Web100))
			}
			if !sameReplicate(r, want[n+i]) {
				t.Errorf("web100=%v: recycled replicate %d differs from its solo run\n got: %+v\nwant: %+v", web, i, r, want[n+i])
			}
		}
	}
}
