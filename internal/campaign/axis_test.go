package campaign

import (
	"strings"
	"testing"
	"time"

	"rsstcp/internal/experiment"
	"rsstcp/internal/unit"
)

func TestPlanExpansionOrderKeysAndSeeds(t *testing.T) {
	p := Plan{
		Axes: []Axis{
			stockAxis(t, "setpoint", 0.5, 0.9),
			stockAxis(t, "rtt", 20*time.Millisecond, 60*time.Millisecond),
		},
		Replicates: 2,
		BaseSeed:   5,
	}
	cells := p.Cells()
	if len(cells) != 4 || p.Size() != 4 || p.Runs() != 8 {
		t.Fatalf("size/runs = %d/%d/%d, want 4/4/8", len(cells), p.Size(), p.Runs())
	}
	wantKeys := []string{
		"setpoint=0.5/rtt=20ms",
		"setpoint=0.5/rtt=60ms",
		"setpoint=0.9/rtt=20ms",
		"setpoint=0.9/rtt=60ms",
	}
	seeds := map[uint64]bool{}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d carries index %d", i, c.Index)
		}
		if c.Key != wantKeys[i] {
			t.Errorf("cell %d key = %q, want %q", i, c.Key, wantKeys[i])
		}
		for rep := 0; rep < p.Replicates; rep++ {
			cfg := p.Config(c, rep)
			if cfg.Seed == 0 || seeds[cfg.Seed] {
				t.Errorf("cell %d rep %d: zero or colliding seed %d", i, rep, cfg.Seed)
			}
			seeds[cfg.Seed] = true
			if again := p.Config(c, rep); again.Seed != cfg.Seed {
				t.Errorf("seed unstable for cell %d rep %d", i, rep)
			}
		}
	}
}

func TestAxisMutatorsCompose(t *testing.T) {
	p := Plan{Axes: []Axis{
		stockAxis(t, "setpoint", 0.7),
		stockAxis(t, "tick", 5*time.Millisecond),
		stockAxis(t, "mss", 9000),
		stockAxis(t, "sack", true),
		stockAxis(t, "alg", experiment.AlgRestricted),
		stockAxis(t, "flows", 3),
		stockAxis(t, "nic", unit.Gbps),
		stockAxis(t, "bytes", 1<<20),
	}}
	cells := p.Cells()
	if len(cells) != 1 {
		t.Fatalf("cells = %d, want 1", len(cells))
	}
	cfg := cells[0].Config
	if len(cfg.Flows) != 3 {
		t.Fatalf("flows = %d, want 3", len(cfg.Flows))
	}
	for i, f := range cfg.Flows {
		if f.Alg != experiment.AlgRestricted || f.SetpointFraction != 0.7 ||
			f.Tick != 5*time.Millisecond || f.MSS != 9000 || !f.SACK || f.Bytes != 1<<20 {
			t.Errorf("flow %d did not receive all per-flow axis values: %+v", i, f)
		}
	}
	if cfg.Path.NICRate != unit.Gbps {
		t.Errorf("NICRate = %v, want 1Gbps", cfg.Path.NICRate)
	}
}

func TestAxisCellsDoNotAliasFlows(t *testing.T) {
	// Sibling cells must own their flow slices: mutating one cell's flows
	// (as the matchup axis and runner seeding do) must not leak into
	// another cell.
	p := Plan{Axes: []Axis{
		stockAxis(t, "flows", 2),
		stockAxis(t, "setpoint", 0.5, 0.9),
	}}
	cells := p.Cells()
	if len(cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(cells))
	}
	if cells[0].Config.Flows[0].SetpointFraction != 0.5 ||
		cells[1].Config.Flows[0].SetpointFraction != 0.9 {
		t.Fatalf("setpoints = %g/%g, want 0.5/0.9",
			cells[0].Config.Flows[0].SetpointFraction,
			cells[1].Config.Flows[0].SetpointFraction)
	}
	cells[0].Config.Flows[0].SetpointFraction = 0.1
	if cells[1].Config.Flows[0].SetpointFraction != 0.9 {
		t.Error("cells share a flow slice")
	}
}

// TestCellLabelsAreClippedWindows: all cells' Labels share one backing array,
// so each must be clipped to its own window — an append to one cell's Labels
// must not write over its neighbour's.
func TestCellLabelsAreClippedWindows(t *testing.T) {
	p := Plan{Axes: []Axis{stockAxis(t, "bw", 10*unit.Mbps, 50*unit.Mbps), stockAxis(t, "ifq", 50, 100)}}
	cells := p.Cells()
	_ = append(cells[0].Labels, "extra")
	want := [][]string{{"bw=10Mbps", "ifq=50"}, {"bw=10Mbps", "ifq=100"}, {"bw=50Mbps", "ifq=50"}, {"bw=50Mbps", "ifq=100"}}
	for i, c := range cells {
		if strings.Join(c.Labels, "/") != strings.Join(want[i], "/") || cap(c.Labels) != len(c.Labels) {
			t.Errorf("cell %d labels %q (cap %d), want %q", i, c.Labels, cap(c.Labels), want[i])
		}
	}
}

// TestZeroAxisPlanExportBytes pins the whole export of a plan with no axes:
// its one cell has nil Labels, which serialize as "labels": null (not []),
// and an empty key and label columns.
func TestZeroAxisPlanExportBytes(t *testing.T) {
	one := Metric{Name: "one", Extract: func(*experiment.Result) float64 { return 1 }}
	rep, err := ExecutePlan(Plan{Metrics: []Metric{one}, Duration: time.Millisecond}, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	j, c := render(t, rep)
	const wantJSON = `{
  "plan": {
    "axes": null,
    "metrics": [
      "one"
    ],
    "replicates": 1,
    "duration": "1ms",
    "base_seed": 1
  },
  "cells": [
    {
      "index": 0,
      "key": "",
      "labels": null,
      "metrics": [
        {
          "name": "one",
          "n": 1,
          "mean": 1,
          "std": 0,
          "min": 1,
          "max": 1,
          "p50": 1,
          "p90": 1
        }
      ]
    }
  ]
}
`
	if j != wantJSON {
		t.Errorf("zero-axis JSON:\n%s\nwant:\n%s", j, wantJSON)
	}
	if want := "one-mean,one-std\n1.00,0.00\n"; c != want {
		t.Errorf("zero-axis CSV %q, want %q", c, want)
	}
}

func TestAxisMatchupBuildsOneFlowPerAlgorithm(t *testing.T) {
	a := stockAxis(t, "matchup", []experiment.Algorithm{experiment.AlgStandard, experiment.AlgRestricted},
		[]experiment.Algorithm{experiment.AlgRestricted, experiment.AlgRestricted},
	)
	if a.Values[0].Label != "standard+restricted" {
		t.Errorf("label = %q", a.Values[0].Label)
	}
	var cfg experiment.Config
	a.Values[0].Set(&cfg)
	if len(cfg.Flows) != 2 || cfg.Flows[0].Alg != experiment.AlgStandard || cfg.Flows[1].Alg != experiment.AlgRestricted {
		t.Errorf("matchup flows = %+v", cfg.Flows)
	}
}

func TestPlanValidateRejectsMalformedAxes(t *testing.T) {
	bad := []Plan{
		{Axes: []Axis{{Name: "", Values: []Value{Val("x", func(*experiment.Config) {})}}}},
		{Axes: []Axis{{Name: "a=b", Values: []Value{Val("x", func(*experiment.Config) {})}}}},
		{Axes: []Axis{{Name: "dup", Values: []Value{Val("x", func(*experiment.Config) {})}},
			{Name: "dup", Values: []Value{Val("y", func(*experiment.Config) {})}}}},
		{Axes: []Axis{{Name: "empty"}}},
		{Axes: []Axis{{Name: "a", Values: []Value{Val("x/y", func(*experiment.Config) {})}}}},
		{Axes: []Axis{{Name: "a", Values: []Value{Val("x", func(*experiment.Config) {}), Val("x", func(*experiment.Config) {})}}}},
		{Axes: []Axis{{Name: "a", Values: []Value{{Label: "x"}}}}},
		{Metrics: []Metric{{Name: ""}}},
		{Metrics: []Metric{{Name: "m"}}},
		{Metrics: []Metric{MetricFairness, MetricFairness}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d accepted", i)
		}
	}
	if err := (Plan{Axes: []Axis{stockAxis(t, "setpoint", 0.5)}}).Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

// TestNegativeCountsRejected: a negative Replicates or Duration fails
// Validate and ExecutePlan, and so do negative Options.Workers; zero keeps
// meaning the default. Each used to run its default: one replicate, 25 s,
// GOMAXPROCS workers.
func TestNegativeCountsRejected(t *testing.T) {
	one := []Axis{stockAxis(t, "bw", 10*unit.Mbps)}
	for _, row := range []struct {
		p    Plan
		opts Options
		want string
	}{
		{Plan{Axes: one, Replicates: -3}, Options{}, "negative replicate count -3"},
		{Plan{Axes: one, Duration: -time.Second}, Options{}, "negative run duration -1s"},
		{Plan{Axes: one, Duration: 10 * time.Millisecond}, Options{Workers: -2}, "negative worker count -2"},
	} {
		_, err := ExecutePlan(row.p, row.opts)
		if err == nil || !strings.Contains(err.Error(), row.want) {
			t.Errorf("ExecutePlan(%+v, workers %d) = %v, want %q", row.p, row.opts.Workers, err, row.want)
		}
		if row.opts.Workers == 0 {
			if err := row.p.Validate(); err == nil || !strings.Contains(err.Error(), row.want) {
				t.Errorf("Validate(%+v) = %v, want %q", row.p, err, row.want)
			}
		}
	}
	if _, err := ExecutePlan(Plan{Axes: one, Duration: 10 * time.Millisecond}, Options{}); err != nil {
		t.Errorf("zero replicates and workers rejected: %v", err)
	}
}

// TestPlanValidateRejectsOutOfDomainValues: an axis value whose config
// experiment.Config.Validate refuses, or whose zero would run the default
// under a "0" label, fails Plan.Compile before anything runs; neither may
// run a default while its label claims the value.
func TestPlanValidateRejectsOutOfDomainValues(t *testing.T) {
	bad := []Axis{
		dimBW.axis(0),
		dimBW.axis(-unit.Mbps),
		dimRTT.axis(0),
		dimRQ.axis(0),
		dimIFQ.axis(-1),
		dimLoss.axis(1.5),
		dimLoss.axis(-0.1),
		dimAlg.axis("bogus"),
		dimFlows.axis(0),
		dimFlows.axis(3_000_000_000), // the mutator would allocate the list
	}
	for i, a := range bad {
		if err := compileErr(Plan{Axes: []Axis{a}}); err == nil {
			t.Errorf("axis %d (%s) accepted an out-of-domain value", i, a.Name)
		}
	}
	// Values built through the registry meet the same checks.
	for _, c := range []struct {
		name string
		v    any
	}{
		{"setpoint", 0.0},
		{"setpoint", 1.5},
		{"tick", time.Duration(0)},
		{"mss", 0},
		{"nic", unit.Bandwidth(0)},
		{"matchup", []experiment.Algorithm{}},
		{"matchup", []experiment.Algorithm{"bogus"}},
		{"bytes", int64(-1)},
	} {
		if err := compileErr(Plan{Axes: []Axis{NewAxis(c.name, c.v)}}); err == nil {
			t.Errorf("NewAxis accepted %s %v", c.name, c.v)
		}
	}
	if ParseAxis("bw", []string{"0"}).err == nil {
		t.Error("ParseAxis accepted bw 0")
	}
}

// TestPlanCompileChecksComposedCells: what runs is the composed cell, so a
// refusal that only two axes trigger together — a one-way delay and a
// reverse delay whose round trip overflows a duration, rsstcp-campaign's
// -rtt 2000000h -rev rate=1,delay=2000000h — is Compile's error naming the
// cell, and ExecutePlan's before any run. Each axis passes alone. Plan.Validate
// used to ask about each value alone, so the refusal surfaced in a worker's
// Build after the campaign had started. So did a churn load whose arrival
// rate, rescaled over the size distribution's mean, is unusable
// (rsstcp-campaign -load 0.5 -fsize pareto:1e300:1k:10M, a NaN mean). A value
// refused alone still names its axis.
func TestPlanCompileChecksComposedCells(t *testing.T) {
	_, f := compileFlags(t, []string{"bw", "rtt", "rev"}, nil,
		[]string{"-rev", "rate=1,delay=2000000h", "-rtt", "20ms,2000000h", "-bw", "10"})
	axes := f.Axes()
	for _, alone := range axes {
		if cells, err := (Plan{Axes: []Axis{alone}}).Compile(); err != nil || len(cells) != len(alone.Values) {
			t.Errorf("axis %q alone: Compile = %d cells, %v", alone.Name, len(cells), err)
		}
	}
	p := Plan{Axes: axes, Replicates: 2, Duration: time.Millisecond}
	const want = "campaign: cell bw=10Mbps/rtt=2000000h0m0s/rbw=1Mbps: experiment: Path.ReverseDelay: " +
		"round trip 1000000h0m0s + 2000000h0m0s overflows a duration"
	if cells, err := p.Compile(); err == nil || err.Error() != want || cells != nil {
		t.Errorf("Compile = %d cells, %v, want %q", len(cells), err, want)
	}
	self := NewSelfMetrics()
	progress := func(done, total int) { t.Errorf("Progress(%d, %d) called on a refused plan", done, total) }
	if rep, err := ExecutePlan(p, Options{Self: self, Progress: progress}); err == nil || err.Error() != want || rep != nil {
		t.Errorf("ExecutePlan = %v, want %q", err, want)
	}
	if n := self.Runs.Value(); n != 0 {
		t.Errorf("ExecutePlan ran %d replicates of a refused plan", n)
	}
	p.Axes[0] = dimBW.axis(-unit.Mbps)
	const wantBW = `campaign: axis "bw": experiment: Path.Bottleneck -1000000bps is negative`
	if _, err := p.Compile(); err == nil || err.Error() != wantBW {
		t.Errorf("Compile = %v, want %q", err, wantBW)
	}

	_, f = compileFlags(t, []string{"load", "fsize"}, nil, []string{"-load", "0.5", "-fsize", "pareto:1e300:1k:10M"})
	p = Plan{Axes: f.Axes(), Replicates: 1, Duration: 100 * time.Millisecond}
	const wantLoad = `campaign: cell load=0.5/fsize=pareto:1e300:1k:10M: experiment: Churn.Load 0.5 over Churn.Size ` +
		`"pareto:1e300:1k:10M" gives an unusable arrival rate: rate NaN/s outside (0, 1e9]: arrivals are scheduled at 1 ns resolution`
	self = NewSelfMetrics()
	if rep, err := ExecutePlan(p, Options{Self: self, Progress: progress}); err == nil || err.Error() != wantLoad || rep != nil {
		t.Errorf("ExecutePlan = %v, want %q", err, wantLoad)
	}
	if n := self.Runs.Value(); n != 0 {
		t.Errorf("ExecutePlan ran %d replicates of a refused plan", n)
	}
}

// compileErr is Plan.Compile's error.
func compileErr(p Plan) error {
	_, err := p.Compile()
	return err
}

// TestPlanValidateRejectsMatchupConflicts: matchup replaces the flow list,
// so combining it with the alg or flows axes would run mislabeled cells.
func TestPlanValidateRejectsMatchupConflicts(t *testing.T) {
	matchup := stockAxis(t, "matchup", []experiment.Algorithm{experiment.AlgStandard, experiment.AlgRestricted})
	for _, clash := range []Axis{
		stockAxis(t, "alg", experiment.AlgStandard),
		stockAxis(t, "flows", 1, 2),
	} {
		p := Plan{Axes: []Axis{clash, matchup}}
		if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "matchup") {
			t.Errorf("matchup + %s accepted (err=%v)", clash.Name, err)
		}
	}
	if err := (Plan{Axes: []Axis{matchup}}).Validate(); err != nil {
		t.Errorf("matchup alone rejected: %v", err)
	}
	// Per-flow axes compose with matchup only when they come after it:
	// matchup-first decorates the rebuilt flow list; matchup-last would
	// silently discard the per-flow values under a lying label.
	perFlow := stockAxis(t, "setpoint", 0.5, 0.9)
	if err := (Plan{Axes: []Axis{perFlow, matchup}}).Validate(); err == nil {
		t.Error("setpoint before matchup accepted — its values would be discarded")
	}
	cells, err := (Plan{Axes: []Axis{matchup, perFlow}}).Compile()
	if err != nil {
		t.Errorf("matchup before setpoint rejected: %v", err)
	}
	if len(cells) != 2 || cells[0].Config.Flows[0].SetpointFraction != 0.5 ||
		cells[0].Config.Flows[1].SetpointFraction != 0.5 {
		t.Errorf("setpoint did not decorate matchup flows: %+v", cells)
	}
}

func TestNewAxisRegistry(t *testing.T) {
	a := NewAxis("setpoint", 0.5, "0.7", 0.9)
	if a.err != nil {
		t.Fatal(a.err)
	}
	if len(a.Values) != 3 || a.Values[1].Label != "0.7" {
		t.Fatalf("axis = %+v", a)
	}
	if err := NewAxis("bogus", 1).err; err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("unknown axis error = %v", err)
	}
	if NewAxis("setpoint").err == nil {
		t.Error("empty value list accepted")
	}
	if err := compileErr(Plan{Axes: []Axis{NewAxis("alg", "nope")}}); err == nil ||
		!strings.Contains(err.Error(), `unknown algorithm "nope"`) {
		t.Errorf("unknown algorithm: Compile = %v", err)
	}
	if NewAxis("rtt", "not-a-duration").err == nil {
		t.Error("bad duration accepted")
	}
}

func TestParseAxisMatchesCLIConventions(t *testing.T) {
	bw := ParseAxis("bw", []string{"10", "100"})
	if bw.err != nil {
		t.Fatal(bw.err)
	}
	if bw.Values[0].Label != "10Mbps" || bw.Values[1].Label != "100Mbps" {
		t.Errorf("bw labels = %q, %q", bw.Values[0].Label, bw.Values[1].Label)
	}
	m := ParseAxis("matchup", []string{"standard+restricted"})
	if m.err != nil {
		t.Fatal(m.err)
	}
	if m.Values[0].Label != "standard+restricted" {
		t.Errorf("matchup label = %q", m.Values[0].Label)
	}
	if ParseAxis("sack", []string{"maybe"}).err == nil {
		t.Error("bad bool accepted")
	}
	for _, name := range StockAxisNames() {
		if AxisHelp(name) == "" {
			t.Errorf("stock axis %q has no help text", name)
		}
	}
}

func TestZeroAxisPlanIsOneDefaultCell(t *testing.T) {
	p := Plan{Duration: time.Second}
	cells := p.Cells()
	if len(cells) != 1 || cells[0].Key != "" {
		t.Fatalf("cells = %+v", cells)
	}
	rep, err := ExecutePlan(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 1 {
		t.Fatalf("report cells = %d", len(rep.Cells))
	}
	if thr, ok := rep.Cells[0].Metric("throughput_mbps"); !ok || thr.Mean <= 0 {
		t.Errorf("default cell made no progress: %+v", rep.Cells[0].Metrics)
	}
}
