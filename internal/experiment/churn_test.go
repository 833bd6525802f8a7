package experiment

import (
	"math"
	"strings"
	"testing"
	"time"

	"rsstcp/internal/sim"
	"rsstcp/internal/unit"
)

// churnCfg is a moderate-load Poisson churn over the paper path: short
// exponential transfers, standard slow-start.
func churnCfg() Config {
	return Config{
		Churn: &ChurnSpec{
			Arrivals: "poisson:40",
			Size:     "exp:50k",
			Flow:     FlowSpec{Alg: AlgStandard},
		},
		Duration:  5 * time.Second,
		Seed:      7,
		Traceless: true,
	}
}

// drainChurn stops arrivals and runs the engine on until the live dynamic
// flows complete.
func drainChurn(t *testing.T, s *Scenario) {
	t.Helper()
	s.StopChurn()
	deadline := sim.At(4 * s.Cfg.Duration)
	s.Eng.RunUntil(deadline)
	if n := s.LiveFlows(); n != 0 {
		t.Fatalf("%d dynamic flows still live after drain", n)
	}
}

func TestChurnFlowsCompleteAndDetach(t *testing.T) {
	t.Parallel()
	s, err := Build(churnCfg())
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if len(res.Flows) < 100 {
		t.Fatalf("only %d flows completed in 5s at 40/s", len(res.Flows))
	}
	if res.FlowsActive != s.LiveFlows() {
		t.Errorf("FlowsActive %d != LiveFlows %d", res.FlowsActive, s.LiveFlows())
	}
	if res.Throughput <= 0 {
		t.Error("churn-only run reported zero aggregate throughput")
	}
	if res.Alg != AlgStandard {
		t.Errorf("churn-only Result.Alg = %q, want template's %q", res.Alg, AlgStandard)
	}
	for i, r := range res.Flows {
		if r.End <= r.Start || r.Bytes < 1 {
			t.Fatalf("record %d malformed: %+v", i, r)
		}
		if r.Slowdown < 1 {
			t.Errorf("record %d slowdown %.3f < 1 (faster than ideal)", i, r.Slowdown)
		}
		if want := sizeClass(r.Bytes); r.Class != want {
			t.Errorf("record %d class %d, want %d for %d bytes", i, r.Class, want, r.Bytes)
		}
	}
}

// TestChurnLeakGate is the flow-leak contract: after arrivals stop and the
// live flows drain, the calendar holds no flow-owned entries, the event
// pool accounts for every entry it issued, and every pooled segment taken
// was released.
func TestChurnLeakGate(t *testing.T) {
	t.Parallel()
	s, err := Build(churnCfg())
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	drainChurn(t, s)
	if got := s.Eng.Leaked(); got != 0 {
		t.Errorf("%d calendar entries leaked", got)
	}
	gets, releases := s.SegCounters()
	if gets != releases {
		t.Errorf("segment pool imbalance: %d gets, %d releases", gets, releases)
	}
}

// TestChurnLeakGate10k is the CI gate at scale: ≥10k completed flows, zero
// leaked calendar entries and segments.
func TestChurnLeakGate10k(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-flow churn gate is a CI job, not a -short test")
	}
	t.Parallel()
	cfg := churnCfg()
	cfg.Churn.Arrivals = "poisson:500"
	cfg.Churn.Size = "exp:20k"
	cfg.Duration = 25 * time.Second
	s, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	drainChurn(t, s)
	done := len(res.Flows) + s.LiveFlows()
	if done < 10000 {
		t.Fatalf("only %d flows completed, want ≥ 10000", done)
	}
	if got := s.Eng.Leaked(); got != 0 {
		t.Errorf("%d calendar entries leaked after %d flows", got, done)
	}
	gets, releases := s.SegCounters()
	if gets != releases {
		t.Errorf("segment pool imbalance after %d flows: %d gets, %d releases", done, gets, releases)
	}
}

// TestChurnRejectsUnusableLoadRate: a load that resolves to no arrival rate
// — a non-finite Load (refused by Validate), a size distribution whose mean
// is NaN although every parameter is finite, or a rate finer than the
// calendar's 1 ns (1-byte flows at 100 Gbps: 1.1e10 flows/s; an MMPP whose
// mean fits but whose high phase rescales to 1.2e9) — is a Build error, not
// a source constructor's panic or a run that never ends.
func TestChurnRejectsUnusableLoadRate(t *testing.T) {
	t.Parallel()
	for _, row := range []struct {
		ch   ChurnSpec
		want string
	}{
		{ChurnSpec{Load: math.Inf(1)}, "Churn.Load +Inf"},
		{ChurnSpec{Load: 0.5, Size: "pareto:1e300:1k:1M"}, "arrival rate"},
		{ChurnSpec{Load: 0.9, Size: "fixed:1"}, "arrival rate"},
		{ChurnSpec{Load: 0.048, Size: "fixed:1", Arrivals: "mmpp:1:1000000:1s"}, "arrival rate"},
	} {
		ch := row.ch
		path := PathConfig{Bottleneck: 100 * unit.Gbps}
		if _, err := Build(Config{Path: path, Churn: &ch, Duration: time.Second}); err == nil || !strings.Contains(err.Error(), row.want) {
			t.Errorf("churn %+v: err = %v, want %q", ch, err, row.want)
		}
	}
}

// TestResetMatchesFreshBuildWithChurn extends the run-context-reuse
// contract to dynamic flows: a reset scenario running a churn
// configuration — including mid-run attach/detach over the warm engine —
// must match a fresh build record for record.
func TestResetMatchesFreshBuildWithChurn(t *testing.T) {
	t.Parallel()
	cfgChurn := churnCfg()
	cfgStatic, _ := resetCfgs()

	fresh, err := Build(cfgChurn)
	if err != nil {
		t.Fatal(err)
	}
	want := fresh.Run()

	// Reused context: static run → churn run → static run, so the churn
	// replicate both inherits and bequeaths a warm engine.
	s, err := Build(cfgStatic)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if err := s.Reset(cfgChurn); err != nil {
		t.Fatal(err)
	}
	got := s.Run()
	sameChurnResult(t, "fresh-vs-reset", want, got)
	if err := s.Reset(cfgStatic); err != nil {
		t.Fatal(err)
	}
	after := s.Run()
	if len(after.Flows) != 0 || after.FlowsActive != 0 {
		t.Errorf("churn state bled into the next static replicate: %+v", after)
	}
}

// sameChurnResult is sameResult plus record-for-record equality of the
// dynamic-flow output.
func sameChurnResult(t *testing.T, label string, want, got Result) {
	t.Helper()
	sameResult(t, label, want, got)
	if want.FlowsActive != got.FlowsActive || want.FlowsRefused != got.FlowsRefused {
		t.Errorf("%s: active/refused diverged: %d/%d vs %d/%d", label,
			want.FlowsActive, want.FlowsRefused, got.FlowsActive, got.FlowsRefused)
	}
	if len(want.Flows) != len(got.Flows) {
		t.Fatalf("%s: %d records (fresh) vs %d (reused)", label, len(want.Flows), len(got.Flows))
	}
	for i := range want.Flows {
		if want.Flows[i] != got.Flows[i] {
			t.Errorf("%s: record %d diverged:\nfresh:  %+v\nreused: %+v",
				label, i, want.Flows[i], got.Flows[i])
		}
	}
}

// TestChurnMaxLiveRefusals pins the admission cap: arrivals beyond MaxLive
// are refused and counted, never silently dropped.
func TestChurnMaxLiveRefusals(t *testing.T) {
	t.Parallel()
	cfg := churnCfg()
	cfg.Churn.Arrivals = "poisson:400"
	cfg.Churn.Size = "fixed:5M" // long transfers: the live set saturates
	cfg.Churn.MaxLive = 4
	s, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.FlowsActive > 4 {
		t.Errorf("live set %d exceeds MaxLive 4", res.FlowsActive)
	}
	if res.FlowsRefused == 0 {
		t.Error("saturated cap reported zero refusals")
	}
}

// TestChurnAttachDetachManual drives the exported lifecycle directly: an
// unbounded flow attached mid-run keeps sending until DetachFlow, which
// releases its timers and routes.
func TestChurnAttachDetachManual(t *testing.T) {
	t.Parallel()
	cfg := Config{Duration: 2 * time.Second, Seed: 3, Traceless: true}
	s, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var f *Flow
	s.Eng.Schedule(sim.At(200*time.Millisecond), func() {
		var err error
		f, err = s.AttachFlow(FlowSpec{Alg: AlgRestricted})
		if err != nil {
			t.Errorf("attach: %v", err)
		}
	})
	s.Eng.Schedule(sim.At(1*time.Second), func() {
		if s.LiveFlows() != 1 {
			t.Errorf("live = %d mid-run, want 1", s.LiveFlows())
		}
		if f.Sender.Stats().ThruOctetsAcked == 0 {
			t.Error("attached flow moved no bytes")
		}
		s.DetachFlow(f)
	})
	res := s.Run()
	if s.LiveFlows() != 0 {
		t.Errorf("live = %d after detach", s.LiveFlows())
	}
	// Unbounded flows detach without completing: no record.
	if len(res.Flows) != 0 {
		t.Errorf("manual detach produced %d completion records", len(res.Flows))
	}
	// The detached flow's counters still aggregate.
	if res.Totals.Stalls < 0 {
		t.Error("unreachable")
	}
	if got := s.Eng.Leaked(); got != 0 {
		t.Errorf("%d calendar entries leaked after manual detach", got)
	}
}
