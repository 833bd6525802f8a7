package experiment

import (
	"strings"
	"testing"
)

// TestSchedulerKindResolution pins the Config.Scheduler contract: empty means
// "ladder unless TimerWheel asked for the wheel", the explicit names resolve
// to themselves, and "wheel" implies the wheel layer.
func TestSchedulerKindResolution(t *testing.T) {
	t.Parallel()
	cases := []struct {
		sched string
		wheel bool
		want  string
	}{
		{"", false, "ladder"},
		{"", true, "wheel"},
		{"heap", false, "heap"},
		{"heap", true, "heap"},
		{"wheel", false, "wheel"},
		{"ladder", false, "ladder"},
		{"ladder", true, "ladder"},
	}
	for _, c := range cases {
		cfg := Config{Scheduler: c.sched, TimerWheel: c.wheel}
		got, err := cfg.SchedulerKind()
		if err != nil {
			t.Fatalf("SchedulerKind(%q, wheel=%v): %v", c.sched, c.wheel, err)
		}
		if got != c.want {
			t.Errorf("SchedulerKind(%q, wheel=%v) = %q, want %q", c.sched, c.wheel, got, c.want)
		}
	}
	if _, err := (Config{Scheduler: "calendar"}).SchedulerKind(); err == nil {
		t.Error("unknown scheduler name accepted")
	}
}

// TestBuildRejectsUnknownScheduler: a typo'd backend name fails loudly at
// Build time rather than silently running on the default.
func TestBuildRejectsUnknownScheduler(t *testing.T) {
	t.Parallel()
	cfg := churnCfg()
	cfg.Scheduler = "calender"
	if _, err := Build(cfg); err == nil || !strings.Contains(err.Error(), "unknown scheduler") {
		t.Fatalf("Build with bad scheduler: err = %v, want unknown-scheduler error", err)
	}
}

// TestBuildWheelSchedulerImpliesWheel: naming the wheel backend is enough —
// the timer-wheel layer comes up without also setting TimerWheel.
func TestBuildWheelSchedulerImpliesWheel(t *testing.T) {
	t.Parallel()
	cfg := churnCfg()
	cfg.Scheduler = "wheel"
	s, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.wheel == nil {
		t.Fatal(`Scheduler:"wheel" did not construct the timer wheel`)
	}
	if s.Eng.LadderEnabled() {
		t.Error(`Scheduler:"wheel" left the ladder calendar enabled`)
	}
}

// TestSchedulerBackendsMatchChurn is the scenario-level scheduler contract:
// the same heavy-tailed churn workload produces identical results — flow
// records, digests, everything — on the binary heap, the timer wheel, and
// the ladder queue. This is the ordering guarantee the ladder's sorted-spray
// design exists to preserve.
func TestSchedulerBackendsMatchChurn(t *testing.T) {
	t.Parallel()
	base := churnCfg()
	base.Churn.Size = "pareto:1.3:5k:5M" // heavy tail: RTOs and delacks fire

	mkCfg := func(sched string) Config {
		cfg := base
		churn := *base.Churn
		cfg.Churn = &churn
		cfg.Scheduler = sched
		return cfg
	}
	build := func(sched string) *Scenario {
		s, err := Build(mkCfg(sched))
		if err != nil {
			t.Fatalf("Build(%s): %v", sched, err)
		}
		return s
	}

	hs := build("heap")
	if hs.Eng.LadderEnabled() {
		t.Fatal("heap scenario runs on the ladder")
	}
	resH := hs.Run()

	for _, sched := range []string{"wheel", "ladder"} {
		s := build(sched)
		if want := sched == "ladder"; s.Eng.LadderEnabled() != want {
			t.Fatalf("%s scenario: LadderEnabled = %v, want %v", sched, !want, want)
		}
		res := owned(s.Run())
		sameChurnResult(t, "heap-vs-"+sched, resH, res)
		if (resH.FCT == nil) != (res.FCT == nil) {
			t.Fatalf("%s: digest presence diverged from heap", sched)
		}
		if resH.FCT != nil && *resH.FCT != *res.FCT {
			t.Errorf("%s: FCT digest diverged:\nheap: %+v\n%s: %+v", sched, *resH.FCT, sched, *res.FCT)
		}

		// Reset discipline holds per backend: a reused context replays
		// the replicate exactly.
		if err := s.Reset(mkCfg(sched)); err != nil {
			t.Fatal(err)
		}
		sameChurnResult(t, sched+"-reset", res, s.Run())
	}
}
