package campaign

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"rsstcp/internal/experiment"
	"rsstcp/internal/stats"
	"rsstcp/internal/unit"
)

// TestFairnessAllZeroGoodput pins the degenerate-cell choice: when every
// flow's goodput is zero (all-loss cell), Jain's index is defined as 1.0 —
// an equal (if empty) share — never NaN from 0/0.
func TestFairnessAllZeroGoodput(t *testing.T) {
	cases := []struct {
		name string
		res  experiment.Result
		want float64
	}{
		{"no flows", experiment.Result{}, 0},
		{"all zero", experiment.Result{FlowThroughputs: zeroTps(3)}, 1},
	}
	for _, c := range cases {
		got := MetricFairness.Extract(&c.res)
		if math.IsNaN(got) {
			t.Fatalf("%s: fairness is NaN", c.name)
		}
		if got != c.want {
			t.Errorf("%s: fairness = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestHundredPercentLossCampaignExportsJSON is the end-to-end regression:
// a campaign sweeping a 100%-loss cell — every goodput zero, degenerate
// summaries — must round-trip through Report.WriteJSON without error.
func TestHundredPercentLossCampaignExportsJSON(t *testing.T) {
	p := Plan{
		Axes: []Axis{
			stockAxis(t, "loss", 1.0),
			stockAxis(t, "flows", 2),
		},
		Metrics:    []Metric{MetricFairness, MetricThroughputMbps, MetricTimeouts},
		Replicates: 2,
		Duration:   2 * time.Second,
	}
	rep, err := ExecutePlan(p, Options{Workers: 2, RetainRuns: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Cells {
		if len(c.Runs) != p.Replicates {
			t.Fatalf("cell %s retained %d runs, want %d", c.Key, len(c.Runs), p.Replicates)
		}
		for _, r := range c.Runs {
			if r.ThroughputBps != 0 {
				t.Errorf("cell %s: nonzero goodput %v on a blackholed path", c.Key, r.ThroughputBps)
			}
		}
		fair, ok := c.Metric("fairness")
		if !ok {
			t.Fatal("fairness summary missing")
		}
		if math.IsNaN(fair.Mean) || fair.Mean != 1 {
			t.Errorf("cell %s: fairness mean = %v, want 1", c.Key, fair.Mean)
		}
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON on 100%%-loss campaign: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("WriteJSON emitted invalid JSON")
	}
}

// TestSummaryJSONNaNTolerance verifies NaN moments serialize as null at
// every layer: stats.Summary, MetricSummary (keeping its name), and
// Replicate metric values.
func TestSummaryJSONNaNTolerance(t *testing.T) {
	empty := stats.Describe(nil)
	b, err := json.Marshal(empty)
	if err != nil {
		t.Fatalf("marshal empty summary: %v", err)
	}
	if want := `{"n":0,"mean":null,"std":null,"min":null,"max":null,"p50":null,"p90":null}`; string(b) != want {
		t.Errorf("empty summary JSON = %s, want %s", b, want)
	}
	var back stats.Summary
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !math.IsNaN(back.Mean) || !math.IsNaN(back.Min) {
		t.Errorf("null moments did not decode as NaN: %+v", back)
	}

	ms := MetricSummary{Name: "fairness", Summary: empty}
	b, err = json.Marshal(ms)
	if err != nil {
		t.Fatalf("marshal metric summary: %v", err)
	}
	if !strings.Contains(string(b), `"name":"fairness"`) {
		t.Errorf("metric summary lost its name: %s", b)
	}

	rep := Replicate{Values: []stats.JSONFloat{stats.JSONFloat(math.NaN()), 1.5}}
	b, err = json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal replicate: %v", err)
	}
	if !strings.Contains(string(b), `"values":[null,1.5]`) {
		t.Errorf("replicate values not NaN-tolerant: %s", b)
	}
}

// TestLossRateOneIsValid locks in the widened validation range.
func TestLossRateOneIsValid(t *testing.T) {
	g := Grid{LossRates: []float64{0, 0.5, 1.0}}
	if err := g.Plan().Validate(); err != nil {
		t.Fatalf("loss rate 1.0 rejected: %v", err)
	}
	g.LossRates = []float64{1.1}
	if err := compileErr(g.Plan()); err == nil {
		t.Fatal("loss rate 1.1 accepted")
	}
}

func zeroTps(n int) []unit.Bandwidth { return make([]unit.Bandwidth, n) }
