package campaign

import (
	"flag"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"rsstcp/internal/experiment"
	"rsstcp/internal/unit"
)

// goldenGrid is the exact campaign behind testdata/grid_golden.json. Do not
// change it: the golden file is the byte-compatibility contract. The file
// was captured at the last commit that still had the PR-1 fixed-field
// exporter, where its 16 cells × 2 runs and six stock summaries were checked
// value for value against that exporter's golden.
func goldenGrid() Grid {
	return Grid{
		Bandwidths: []unit.Bandwidth{10 * unit.Mbps, 50 * unit.Mbps},
		RTTs:       []time.Duration{10 * time.Millisecond, 40 * time.Millisecond},
		LossRates:  []float64{0.005},
		Algorithms: []experiment.Algorithm{experiment.AlgStandard, experiment.AlgRestricted},
		FlowCounts: []int{1, 2},
		Replicates: 2,
		Duration:   time.Second,
		BaseSeed:   7,
	}
}

// goldenJSON runs a plan retaining raw runs and renders the report.
func goldenJSON(t *testing.T, p Plan, workers int) string {
	t.Helper()
	rep, err := ExecutePlan(p, Options{Workers: workers, RetainRuns: true})
	if err != nil {
		t.Fatal(err)
	}
	j, _ := render(t, rep)
	return j
}

// TestPlanGoldenOutput pins the simulator's observable behaviour end to end:
// the golden grid, compiled to a plan and run with raw runs retained, must
// emit Report.WriteJSON bytes identical to the committed golden file.
func TestPlanGoldenOutput(t *testing.T) {
	want, err := os.ReadFile("testdata/grid_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenJSON(t, goldenGrid().Plan(), 4); got != string(want) {
		t.Fatalf("plan JSON diverged from golden output\ngolden %d bytes, got %d bytes\n%s",
			len(want), len(got), firstDiff(string(want), got))
	}
}

// firstDiff renders the neighborhood of the first byte difference.
func firstDiff(a, b string) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 120
			if lo < 0 {
				lo = 0
			}
			hiA, hiB := i+120, i+120
			if hiA > len(a) {
				hiA = len(a)
			}
			if hiB > len(b) {
				hiB = len(b)
			}
			return "first diff at byte " + strconv.Itoa(i) + ":\n--- golden ---\n" + a[lo:hiA] + "\n--- got ---\n" + b[lo:hiB]
		}
	}
	return "one output is a prefix of the other"
}

// TestGridMatchesHandCompiledAxes proves Grid is only a compiler: a plan
// assembled by hand from the stock axis constructors renders the same bytes
// — cell keys, seeds, runs and summaries — as the grid-compiled plan.
func TestGridMatchesHandCompiledAxes(t *testing.T) {
	plan := Plan{
		Axes: []Axis{
			stockAxis(t, "bw", 10*unit.Mbps, 50*unit.Mbps),
			stockAxis(t, "rtt", 10*time.Millisecond, 40*time.Millisecond),
			stockAxis(t, "rq", 250),
			stockAxis(t, "ifq", 100),
			stockAxis(t, "loss", 0.005),
			stockAxis(t, "alg", experiment.AlgStandard, experiment.AlgRestricted),
			stockAxis(t, "flows", 1, 2),
		},
		Metrics:    StockMetrics(),
		Replicates: 2,
		Duration:   time.Second,
		BaseSeed:   7,
	}
	if grid, hand := goldenJSON(t, goldenGrid().Plan(), 2), goldenJSON(t, plan, 3); grid != hand {
		t.Fatalf("grid-compiled and hand-compiled plans diverged\n%s", firstDiff(grid, hand))
	}
}

// TestClassicFlagsCompileToGridPlan pins the CLI collapse: the seven classic
// flags on a real FlagSet, compiled by the CLIs' flag compiler, expand to
// the cell keys and derived seeds of Grid{...}.Plan() — so `-bw 10,50` and
// Grid.Bandwidths cannot drift apart.
func TestClassicFlagsCompileToGridPlan(t *testing.T) {
	fs := flag.NewFlagSet("rsstcp-campaign", flag.ContinueOnError)
	classic := []string{"bw", "rtt", "rq", "ifq", "loss", "alg", "flows"}
	axes := NewAxisFlags(fs, classic, map[string]string{"rq": "250", "ifq": "100"}, true)
	if err := fs.Parse([]string{"-flows", "1,2", "-alg", "standard, restricted", "-loss", "0.005",
		"-rtt", "10ms,40ms", "-bw", "10,,50"}); err != nil {
		t.Fatal(err)
	}
	flags := Plan{Axes: axes.Axes(), Replicates: 2, Duration: time.Second, BaseSeed: 7}
	grid := goldenGrid().Plan()
	fc, gc := flags.Cells(), grid.Cells()
	if len(fc) != len(gc) {
		t.Fatalf("cells: %d from flags, %d from the grid", len(fc), len(gc))
	}
	for i := range gc {
		if fc[i].Key != gc[i].Key {
			t.Fatalf("cell %d key %q from flags, %q from the grid", i, fc[i].Key, gc[i].Key)
		}
		if !reflect.DeepEqual(fc[i].Config, gc[i].Config) {
			t.Errorf("cell %d config from flags\n%+v\nfrom the grid\n%+v", i, fc[i].Config, gc[i].Config)
		}
		for rep := 0; rep < grid.Replicates; rep++ {
			if fs, gs := flags.Config(fc[i], rep).Seed, grid.Config(gc[i], rep).Seed; fs != gs {
				t.Errorf("cell %d replicate %d seed %d from flags, %d from the grid", i, rep, fs, gs)
			}
		}
	}
}

// TestPlanWorkerCountDoesNotChangeReport extends the PR-1 invariant to the
// generic engine: one worker and eight workers must emit byte-identical
// report JSON, including custom metric values.
func TestPlanWorkerCountDoesNotChangeReport(t *testing.T) {
	plan := Plan{
		Axes: []Axis{
			stockAxis(t, "setpoint", 0.5, 0.9),
			stockAxis(t, "alg", experiment.AlgRestricted),
			stockAxis(t, "loss", 0.005),
		},
		Metrics:    []Metric{MetricThroughputMbps, MetricFairness, MetricTimeToUtil90},
		Replicates: 2,
		Duration:   time.Second,
		BaseSeed:   3,
	}
	render := func(workers int) string {
		rep, err := ExecutePlan(plan, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := rep.WriteJSON(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if j1, j8 := render(1), render(8); j1 != j8 {
		t.Errorf("report JSON diverged between 1 and 8 workers:\n%.1500s\nvs\n%.1500s", j1, j8)
	}
}
