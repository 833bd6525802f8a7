package experiment

import "testing"

// buildOnHeap builds cfg's scenario on the binary-heap calendar, the
// reference the ladder is checked against: Build, then empty the engine,
// switch it to the heap and Reset the scenario onto it (init leaves the
// calendar alone). It fails the test unless the engine reports the heap.
func buildOnHeap(tb testing.TB, cfg Config) *Scenario {
	tb.Helper()
	s, err := Build(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	s.Eng.Reset()
	s.Eng.UseLadder(false)
	if err := s.Reset(cfg); err != nil {
		tb.Fatal(err)
	}
	if b := s.Eng.SchedStats().Backend; b != "heap" {
		tb.Fatalf("reference scenario runs on the %s calendar, want heap", b)
	}
	return s
}

// TestTimerWheelScenarioRunsLadder: a scenario that hosts its endpoint
// timers on the wheel still runs the ladder calendar under it, like every
// other scenario — the wheel is a layer over the calendar, not a choice of
// calendar.
func TestTimerWheelScenarioRunsLadder(t *testing.T) {
	t.Parallel()
	cfg := churnCfg()
	cfg.TimerWheel = true
	s, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if s.wheel == nil {
		t.Fatal("TimerWheel scenario built no wheel")
	}
	st := s.Eng.SchedStats()
	if st.Backend != "ladder" {
		t.Fatalf("TimerWheel scenario runs on the %s calendar, want ladder", st.Backend)
	}
	if st.Sorts == 0 {
		t.Errorf("ladder stats %+v: no bucket was ever sorted", st)
	}
}

// TestSchedulerBackendsMatchChurn is the scenario-level scheduler contract:
// the same heavy-tailed churn workload produces identical results — flow
// records, digests, everything — on the binary heap, on the ladder queue,
// and with the endpoint timers on the wheel over either. This is the
// ordering guarantee the ladder's sorted-spray design exists to preserve.
func TestSchedulerBackendsMatchChurn(t *testing.T) {
	t.Parallel()
	base := churnCfg()
	base.Churn.Size = "pareto:1.3:5k:5M" // heavy tail: RTOs and delacks fire

	mkCfg := func(wheel bool) Config {
		cfg := base
		churn := *base.Churn
		cfg.Churn = &churn
		cfg.TimerWheel = wheel
		return cfg
	}
	resH := buildOnHeap(t, mkCfg(false)).Run()

	for _, v := range []struct {
		name        string
		heap, wheel bool
	}{
		{"heap+wheel", true, true},
		{"ladder", false, false},
		{"ladder+wheel", false, true},
	} {
		var s *Scenario
		if v.heap {
			s = buildOnHeap(t, mkCfg(v.wheel))
		} else {
			var err error
			if s, err = Build(mkCfg(v.wheel)); err != nil {
				t.Fatalf("Build(%s): %v", v.name, err)
			}
		}
		res := owned(s.Run())
		sameChurnResult(t, "heap-vs-"+v.name, resH, res)
		if (resH.FCT == nil) != (res.FCT == nil) {
			t.Fatalf("%s: digest presence diverged from heap", v.name)
		}
		if resH.FCT != nil && *resH.FCT != *res.FCT {
			t.Errorf("%s: FCT digest diverged:\nheap: %+v\n%s: %+v", v.name, *resH.FCT, v.name, *res.FCT)
		}

		// Reset discipline holds per backend: a reused context replays
		// the replicate exactly, on the calendar it was given.
		if err := s.Reset(mkCfg(v.wheel)); err != nil {
			t.Fatal(err)
		}
		sameChurnResult(t, v.name+"-reset", res, s.Run())
		if got := s.Eng.SchedStats().Backend; (got == "heap") != v.heap {
			t.Errorf("%s: Reset moved the scenario onto the %s calendar", v.name, got)
		}
	}
}
