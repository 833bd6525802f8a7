package campaign

import (
	"strings"
	"testing"
	"time"

	"rsstcp/internal/experiment"
	"rsstcp/internal/unit"
)

// smallGrid is cheap enough to execute repeatedly in tests: 8 cells × 2
// replicates of 1-second runs, with loss so replicates actually differ.
func smallGrid() Grid {
	return Grid{
		Bandwidths: []unit.Bandwidth{10 * unit.Mbps, 50 * unit.Mbps},
		RTTs:       []time.Duration{10 * time.Millisecond, 40 * time.Millisecond},
		LossRates:  []float64{0.005},
		Algorithms: []experiment.Algorithm{experiment.AlgStandard, experiment.AlgRestricted},
		Replicates: 2,
		Duration:   time.Second,
		BaseSeed:   7,
	}
}

func render(t *testing.T, r *Report) (jsonOut, csvOut string) {
	t.Helper()
	var j, c strings.Builder
	if err := r.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteCSV(&c); err != nil {
		t.Fatal(err)
	}
	return j.String(), c.String()
}

// TestWorkerCountDoesNotChangeResults is the tentpole invariant: one worker
// and eight workers must emit byte-identical JSON and CSV.
func TestWorkerCountDoesNotChangeResults(t *testing.T) {
	p := smallGrid().Plan()
	serial, err := ExecutePlan(p, Options{Workers: 1, RetainRuns: true})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := ExecutePlan(p, Options{Workers: 8, RetainRuns: true})
	if err != nil {
		t.Fatal(err)
	}
	j1, c1 := render(t, serial)
	j8, c8 := render(t, parallel)
	if j1 != j8 {
		t.Errorf("JSON diverged between 1 and 8 workers:\n--- 1 worker ---\n%.2000s\n--- 8 workers ---\n%.2000s", j1, j8)
	}
	if c1 != c8 {
		t.Errorf("CSV diverged between 1 and 8 workers:\n%s\nvs\n%s", c1, c8)
	}
}

func TestExecuteShape(t *testing.T) {
	g := smallGrid()
	res, err := ExecutePlan(g.Plan(), Options{Workers: 4, RetainRuns: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 8 {
		t.Fatalf("cells = %d, want 8", len(res.Cells))
	}
	for i, c := range res.Cells {
		if c.Index != i {
			t.Errorf("cell %d out of order (index %d)", i, c.Index)
		}
		if len(c.Runs) != g.Replicates {
			t.Fatalf("cell %d has %d runs, want %d", i, len(c.Runs), g.Replicates)
		}
		for rep, r := range c.Runs {
			if r.Replicate != rep {
				t.Errorf("cell %d run %d labeled replicate %d", i, rep, r.Replicate)
			}
			if r.Seed == 0 {
				t.Errorf("cell %d run %d has zero seed", i, rep)
			}
			if r.ThroughputBps <= 0 {
				t.Errorf("cell %d run %d made no progress", i, rep)
			}
		}
		thr, _ := c.Metric("throughput_mbps")
		if thr.N != g.Replicates {
			t.Errorf("cell %d summary over %d samples, want %d", i, thr.N, g.Replicates)
		}
		if thr.Mean <= 0 {
			t.Errorf("cell %d mean throughput %v", i, thr.Mean)
		}
	}
}

// TestLossMakesReplicatesDistinct: with loss injection on, different
// replicate seeds must produce genuinely different loss patterns — that is
// what the per-cell stddev measures.
func TestLossMakesReplicatesDistinct(t *testing.T) {
	g := Grid{
		Bandwidths: []unit.Bandwidth{20 * unit.Mbps},
		RTTs:       []time.Duration{40 * time.Millisecond},
		LossRates:  []float64{0.02},
		Algorithms: []experiment.Algorithm{experiment.AlgStandard},
		Replicates: 4,
		Duration:   2 * time.Second,
	}
	res, err := ExecutePlan(g.Plan(), Options{RetainRuns: true})
	if err != nil {
		t.Fatal(err)
	}
	cell := res.Cells[0]
	distinct := map[int64]bool{}
	for _, r := range cell.Runs {
		if r.InjectedDrops == 0 {
			t.Errorf("replicate %d saw no injected loss at p=0.02", r.Replicate)
		}
		distinct[r.InjectedDrops] = true
	}
	if len(distinct) < 2 {
		t.Errorf("all %d replicates injected identical drop counts %v — seeds not differentiating", len(cell.Runs), cell.Runs)
	}
	inj, _ := cell.Metric("injected_drops")
	thr, _ := cell.Metric("throughput_mbps")
	if inj.Std == 0 && thr.Std == 0 {
		t.Error("zero variance across lossy replicates")
	}
}

func TestProgressCountsEveryRun(t *testing.T) {
	g := smallGrid().Plan()
	var calls int
	var lastDone, lastTotal int
	_, err := ExecutePlan(g, Options{Workers: 3, ProgressEvery: 1, Progress: func(done, total int) {
		calls++
		if done != calls {
			t.Errorf("progress out of order: call %d reported done=%d", calls, done)
		}
		lastDone, lastTotal = done, total
	}})
	if err != nil {
		t.Fatal(err)
	}
	want := g.Runs()
	if calls != want {
		t.Errorf("progress called %d times, want %d", calls, want)
	}
	if lastDone != want || lastTotal != want {
		t.Errorf("final progress %d/%d, want %d/%d", lastDone, lastTotal, want, want)
	}
}

// TestProgressCoarsening: ProgressEvery > 1 must deliver only every Nth
// completion plus the final one, still in canonical order.
func TestProgressCoarsening(t *testing.T) {
	g := smallGrid().Plan() // 16 runs
	var dones []int
	_, err := ExecutePlan(g, Options{Workers: 3, ProgressEvery: 5, Progress: func(done, total int) {
		dones = append(dones, done)
		if total != g.Runs() {
			t.Errorf("total = %d, want %d", total, g.Runs())
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{5, 10, 15, 16}
	if len(dones) != len(want) {
		t.Fatalf("progress calls %v, want %v", dones, want)
	}
	for i := range want {
		if dones[i] != want[i] {
			t.Fatalf("progress calls %v, want %v", dones, want)
		}
	}
}

func TestExecuteRejectsInvalidGrid(t *testing.T) {
	_, err := ExecutePlan(Grid{Algorithms: []experiment.Algorithm{"bogus"}}.Plan(), Options{})
	if err == nil {
		t.Fatal("invalid grid accepted")
	}
	if !strings.Contains(err.Error(), "bogus") {
		t.Errorf("error %q does not name the offender", err)
	}
}

func TestTableHasOneRowPerCell(t *testing.T) {
	res, err := ExecutePlan(smallGrid().Plan(), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	tbl := res.Table()
	if len(tbl.Rows) != len(res.Cells) {
		t.Fatalf("rows = %d, want %d", len(tbl.Rows), len(res.Cells))
	}
	s := tbl.String()
	for _, want := range []string{"10Mbps", "50Mbps", "standard", "restricted"} {
		if !strings.Contains(s, want) {
			t.Errorf("table missing %q:\n%s", want, s)
		}
	}
}

// TestRunnerSeedsMatchDeriveSeed: a worker hashes a cell key once and mixes
// in each replicate, so its seeds must still equal DeriveSeed's bit for bit —
// for every paper-suite cell and replicates 0–4, on two workers whose spans
// cross cell boundaries. The runs are cut to 1 ms; keys, and so seeds, do not
// depend on the duration.
func TestRunnerSeedsMatchDeriveSeed(t *testing.T) {
	t.Parallel()
	for _, st := range PaperSuite(3 * time.Second) {
		p := st.Plan
		p.Duration, p.Replicates = time.Millisecond, 5
		rep, err := ExecutePlan(p, Options{Workers: 2, RetainRuns: true})
		if err != nil {
			t.Fatalf("%s: %v", st.ID, err)
		}
		for _, c := range rep.Cells {
			for _, r := range c.Runs {
				if want := DeriveSeed(rep.Plan.BaseSeed, c.Key, r.Replicate); r.Seed != want {
					t.Errorf("%s %s replicate %d: runner seed %d, DeriveSeed %d", st.ID, c.Key, r.Replicate, r.Seed, want)
				}
			}
		}
	}
}
