package campaign

import (
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rsstcp/internal/experiment"
	"rsstcp/internal/stats"
	"rsstcp/internal/unit"
)

// TestStreamingMatchesBatchDescribe is the aggregation-equivalence
// satellite: on the grid golden plan, the streaming per-cell summaries must
// match a batch stats.Describe over the retained replicate values bit for
// bit — same Welford recurrence in replicate order, same sorted-sample
// quantiles.
func TestStreamingMatchesBatchDescribe(t *testing.T) {
	p := goldenGrid().Plan()
	rep, err := ExecutePlan(p, Options{Workers: 4, RetainRuns: true})
	if err != nil {
		t.Fatal(err)
	}
	p = p.withDefaults()
	bits := math.Float64bits
	for _, c := range rep.Cells {
		if len(c.Runs) == 0 {
			t.Fatalf("cell %s retained no runs", c.Key)
		}
		xs := make([]float64, len(c.Runs))
		for mi := range p.Metrics {
			for ri, r := range c.Runs {
				xs[ri] = float64(r.Values[mi])
			}
			want := stats.Describe(xs)
			got := c.Metrics[mi].Summary
			if got.N != want.N ||
				bits(got.Mean) != bits(want.Mean) || bits(got.Std) != bits(want.Std) ||
				bits(got.Min) != bits(want.Min) || bits(got.Max) != bits(want.Max) ||
				bits(got.P50) != bits(want.P50) || bits(got.P90) != bits(want.P90) {
				t.Errorf("cell %s metric %s: streaming %+v != batch %+v",
					c.Key, p.Metrics[mi].Name, got, want)
			}
		}
	}
}

// TestStreamingDropsReplicates: without RetainRuns the report must carry no
// raw runs while its summaries stay identical to a retaining execution.
func TestStreamingDropsReplicates(t *testing.T) {
	p := goldenGrid().Plan()
	lean, err := ExecutePlan(p, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	full, err := ExecutePlan(p, Options{Workers: 4, RetainRuns: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(lean.Cells) != len(full.Cells) {
		t.Fatalf("cell counts diverged: %d vs %d", len(lean.Cells), len(full.Cells))
	}
	for i, c := range lean.Cells {
		if len(c.Runs) != 0 {
			t.Errorf("cell %s retained %d runs without RetainRuns", c.Key, len(c.Runs))
		}
		for mi, m := range c.Metrics {
			want := full.Cells[i].Metrics[mi]
			if m.Name != want.Name || m.Summary != want.Summary {
				t.Errorf("cell %s metric %s summary diverged between streaming and retained runs:\n%+v\nvs\n%+v",
					c.Key, m.Name, m.Summary, want.Summary)
			}
		}
	}
}

// TestStreamingWorkerCountDoesNotChangeReport: the determinism invariant
// with the streaming (RetainRuns off) path — byte-identical JSON and CSV on
// one worker and eight.
func TestStreamingWorkerCountDoesNotChangeReport(t *testing.T) {
	p := goldenGrid().Plan()
	render := func(workers int) (string, string) {
		rep, err := ExecutePlan(p, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var j, c strings.Builder
		if err := rep.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteCSV(&c); err != nil {
			t.Fatal(err)
		}
		return j.String(), c.String()
	}
	j1, c1 := render(1)
	j8, c8 := render(8)
	if j1 != j8 {
		t.Errorf("streaming JSON diverged between 1 and 8 workers:\n%.1500s\nvs\n%.1500s", j1, j8)
	}
	if c1 != c8 {
		t.Errorf("streaming CSV diverged between 1 and 8 workers:\n%s\nvs\n%s", c1, c8)
	}
}

// TestStreamedReportJSONMatchesEncoder pins the byte format of the
// streaming exporter against the reference json.Encoder rendering of the
// same document, with and without retained runs.
func TestStreamedReportJSONMatchesEncoder(t *testing.T) {
	p := Plan{
		Axes: []Axis{
			stockAxis(t, "loss", 0, 1), // a 100%-loss cell exercises NaN -> null
			stockAxis(t, "alg", experiment.AlgStandard),
		},
		Metrics:    []Metric{MetricThroughputMbps, MetricFairness},
		Replicates: 2,
		Duration:   time.Second,
	}
	for _, retain := range []bool{false, true} {
		rep, err := ExecutePlan(p, Options{Workers: 2, RetainRuns: retain})
		if err != nil {
			t.Fatal(err)
		}
		var streamed strings.Builder
		if err := rep.WriteJSON(&streamed); err != nil {
			t.Fatal(err)
		}

		// Reference rendering: one monolithic encode of the same shape.
		pd := rep.Plan.withDefaults()
		jp := jsonPlan{
			Replicates: pd.Replicates,
			Duration:   pd.Duration.String(),
			BaseSeed:   pd.BaseSeed,
		}
		for _, a := range pd.Axes {
			ja := jsonAxis{Name: a.Name}
			for _, v := range a.Values {
				ja.Labels = append(ja.Labels, v.Label)
			}
			jp.Axes = append(jp.Axes, ja)
		}
		for _, m := range pd.Metrics {
			jp.Metrics = append(jp.Metrics, m.Name)
		}
		var ref strings.Builder
		enc := json.NewEncoder(&ref)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonReport{Plan: jp, Cells: rep.Cells}); err != nil {
			t.Fatal(err)
		}

		if streamed.String() != ref.String() {
			t.Errorf("retain=%v: streamed JSON != encoder JSON\n--- streamed ---\n%.1000s\n--- encoder ---\n%.1000s",
				retain, streamed.String(), ref.String())
		}
	}
}

// TestLargeGridStreamingPeakHeap is the CI memory-budget smoke: a ≥1k-run
// traceless sweep with RetainRuns off must hold peak heap under a flat
// budget — memory is governed by the cell count and the worker pool, not
// the run count.
func TestLargeGridStreamingPeakHeap(t *testing.T) {
	// Bandwidths descend deliberately: the canonically-first cells are the
	// most expensive, the exact skew that would balloon the collector's
	// reorder buffer if the dispatch window did not bound it.
	g := Grid{
		Bandwidths: []unit.Bandwidth{25 * unit.Mbps, 10 * unit.Mbps},
		RTTs:       []time.Duration{10 * time.Millisecond, 30 * time.Millisecond},
		Algorithms: []experiment.Algorithm{experiment.AlgStandard, experiment.AlgRestricted},
		Replicates: 128,
		Duration:   200 * time.Millisecond,
	}
	p := g.Plan()
	if p.Runs() < 1000 {
		t.Fatalf("smoke too small: %d runs", p.Runs())
	}

	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)

	// Sample peak heap on a ticker: ReadMemStats stops the world, so a
	// tight loop would serialize the very sweep under measurement.
	var peak atomic.Uint64
	sample := func() {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		if m.HeapAlloc > peak.Load() {
			peak.Store(m.HeapAlloc)
		}
	}
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				sample()
			}
		}
	}()

	rep, err := ExecutePlan(p, Options{})
	close(stop)
	<-sampled
	sample() // final state, in case the sweep outran the first tick
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != p.Size() {
		t.Fatalf("cells = %d, want %d", len(rep.Cells), p.Size())
	}
	for _, c := range rep.Cells {
		if len(c.Runs) != 0 {
			t.Fatal("streaming smoke retained runs")
		}
		if thr, ok := c.Metric("throughput_mbps"); !ok || thr.N != g.Replicates || thr.Mean <= 0 {
			t.Fatalf("cell %s summary %+v — streaming aggregation lost replicates", c.Key, thr)
		}
	}

	const budget = 64 << 20 // 64 MiB: cells + worker scenarios, not runs
	if got := peak.Load(); got > budget {
		t.Errorf("peak heap %d MiB over a %d-run sweep, budget %d MiB — streaming aggregation is not flat",
			got>>20, p.Runs(), budget>>20)
	} else {
		t.Logf("peak heap %.1f MiB over %d runs (baseline %.1f MiB)",
			float64(peak.Load())/(1<<20), p.Runs(), float64(m0.HeapAlloc)/(1<<20))
	}
}
