package campaign

import (
	"runtime"
	"testing"
	"time"

	"rsstcp/internal/experiment"
	"rsstcp/internal/unit"
)

// speedupGrid is heavy enough that per-run work dominates pool overhead:
// 16 cells of 10-second virtual runs.
func speedupGrid() Grid {
	return Grid{
		Bandwidths:  []unit.Bandwidth{50 * unit.Mbps, 100 * unit.Mbps},
		RTTs:        []time.Duration{30 * time.Millisecond, 60 * time.Millisecond},
		TxQueueLens: []int{50, 100},
		Algorithms:  []experiment.Algorithm{experiment.AlgStandard, experiment.AlgRestricted},
		Replicates:  1,
		Duration:    10 * time.Second,
	}
}

// TestParallelSpeedup demonstrates the worker pool scales: 4 workers must
// finish the same campaign at least twice as fast as 1 worker. The
// simulations are pure CPU work, so the test needs real cores to mean
// anything and is skipped on smaller machines and in -short runs.
func TestParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup measurement skipped in -short")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 CPUs to demonstrate 4-worker speedup, have %d", runtime.NumCPU())
	}
	g := speedupGrid()

	// Warm up once so allocator/cache effects don't bias the serial leg.
	if _, err := ExecutePlan(g.Plan(), Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	if _, err := ExecutePlan(g.Plan(), Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	serial := time.Since(start)

	start = time.Now()
	if _, err := ExecutePlan(g.Plan(), Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	parallel := time.Since(start)

	speedup := float64(serial) / float64(parallel)
	t.Logf("serial %v, 4 workers %v, speedup %.2fx", serial, parallel, speedup)
	if speedup < 2.0 {
		t.Errorf("speedup = %.2fx, want >= 2x on 4 workers", speedup)
	}
}

func benchmarkCampaign(b *testing.B, workers int) {
	g := smallGridBench()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ExecutePlan(g.Plan(), Options{Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

func smallGridBench() Grid {
	return Grid{
		Bandwidths: []unit.Bandwidth{50 * unit.Mbps, 100 * unit.Mbps},
		RTTs:       []time.Duration{30 * time.Millisecond, 60 * time.Millisecond},
		Algorithms: []experiment.Algorithm{experiment.AlgStandard, experiment.AlgRestricted},
		Replicates: 1,
		Duration:   5 * time.Second,
	}
}

func BenchmarkCampaignSerial(b *testing.B)     { benchmarkCampaign(b, 1) }
func BenchmarkCampaign4Workers(b *testing.B)   { benchmarkCampaign(b, 4) }
func BenchmarkCampaignGOMAXPROCS(b *testing.B) { benchmarkCampaign(b, 0) }

// turnaroundPlan is the benchmark's campaign_grid shape — 64 cells of 50 ms
// replicates, ~33 calendar events each — where what a replicate costs beyond
// its events (Reset, extraction, the hand-off to the collector) is most of
// the bill.
func turnaroundPlan(replicates int) Plan {
	p := Grid{
		Bandwidths:  []unit.Bandwidth{10 * unit.Mbps, 25 * unit.Mbps, 50 * unit.Mbps, 100 * unit.Mbps},
		RTTs:        []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond, 60 * time.Millisecond},
		TxQueueLens: []int{50, 100},
		Algorithms:  []experiment.Algorithm{experiment.AlgStandard, experiment.AlgRestricted},
		Duration:    50 * time.Millisecond,
	}.Plan()
	p.Replicates = replicates
	return p
}

// BenchmarkCampaignTurnaround reports what replicate turnaround moves, on one
// worker: runs per second, allocations and bytes per run, and the garbage
// collections a plan triggers.
func BenchmarkCampaignTurnaround(b *testing.B) {
	p := turnaroundPlan(32)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExecutePlan(p, Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	runs := float64(b.N * p.Runs())
	b.ReportMetric(runs/b.Elapsed().Seconds(), "runs/s")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/runs, "allocs/run")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/runs, "B/run")
	b.ReportMetric(float64(after.NumGC-before.NumGC)/float64(b.N), "gc/op")
}

// TestCampaignAllocBudgetPerRun pins the amortised allocation cost of a
// campaign replicate on one worker: a replicate itself allocates nothing (the
// testbed is recycled, the Result borrowed, the span buffers come back from
// the collector), so what is left is the first Build, the plan's cells, the
// first window of span buffers and a cell's summaries — at most 0.4 objects
// and 100 B per run.
func TestCampaignAllocBudgetPerRun(t *testing.T) {
	p := turnaroundPlan(32)
	execute := func() {
		if _, err := ExecutePlan(p, Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(3, execute) // warms up with one more run
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	execute()
	runtime.ReadMemStats(&after)
	perRun, bytes := allocs/float64(p.Runs()), float64(after.TotalAlloc-before.TotalAlloc)/float64(p.Runs())
	if perRun > 0.4 || bytes > 100 {
		t.Errorf("campaign allocates %.2f objects and %.1f B per run amortised, budget 0.4 and 100 B", perRun, bytes)
	} else {
		t.Logf("%.2f allocations and %.1f B per run amortised", perRun, bytes)
	}
}

// TestPlanCellsAllocBudget pins what compiling the campaign_grid plan costs
// per cell: its key, its flow lists and what the mutators allocate — no label
// slice or "name=label" string per cell or per node.
func TestPlanCellsAllocBudget(t *testing.T) {
	p := turnaroundPlan(1)
	allocs := testing.AllocsPerRun(10, func() { p.Cells() })
	if perCell := allocs / float64(p.Size()); perCell > 6 {
		t.Errorf("Cells allocates %.2f objects per cell, budget 6", perCell)
	} else {
		t.Logf("%.2f allocations per cell", perCell)
	}
}

// BenchmarkPlanCells reports the plan-compile cost of the campaign_grid shape:
// ns per Cells call and allocations per cell.
func BenchmarkPlanCells(b *testing.B) {
	p := turnaroundPlan(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	calls := 0
	for b.Loop() {
		p.Cells()
		calls++
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(calls*p.Size()), "allocs/cell")
}
