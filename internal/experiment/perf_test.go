package experiment

import (
	"fmt"
	"testing"
	"time"
)

// paperPerfCfg is the perf fixture: the paper path proper (both senders,
// default bottleneck), traceless so the measurement is the event loop and
// the TCP machinery, not trace formatting.
func paperPerfCfg(alg Algorithm, dur time.Duration) Config {
	return Config{
		Flows:     []FlowSpec{{Alg: alg}},
		Duration:  dur,
		Seed:      1,
		Traceless: true,
	}
}

// runPaperPath builds one paper-path replicate, on the heap when heap is
// set and on the ladder otherwise, and runs it, returning events processed
// and wall time.
func runPaperPath(tb testing.TB, cfg Config, heap bool) (uint64, time.Duration) {
	var s *Scenario
	if heap {
		s = buildOnHeap(tb, cfg)
	} else {
		var err error
		if s, err = Build(cfg); err != nil {
			tb.Fatal(err)
		}
	}
	t0 := time.Now()
	s.Run()
	return s.Eng.Processed(), time.Since(t0)
}

// TestLadderWithinHeapBudget is the ns/event regression guard for the
// ladder backend: interleaved heap/ladder reps of the paper path (so
// machine-load drift cancels in the pairwise comparison), min-of-reps on
// each side (each seed's event stream is deterministic, so the minimum
// estimates true cost and the mean estimates noise), asserting the ladder
// stays within 1.5x of the heap. The bound is deliberately generous — CI
// boxes are noisy and the two backends measure within a few percent of
// each other on quiet hardware; this gate catches structural regressions
// (an accidental O(n) splice, a lost fast path). Absolute ns/event is
// bench/'s job (paper_path, and sim.hold8_ns.* for the calendars alone).
func TestLadderWithinHeapBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("perf guard: skipped in -short")
	}
	const reps = 6
	dur := 10 * time.Second
	minH, minL := time.Duration(1<<62), time.Duration(1<<62)
	var evH, evL uint64
	for i := 0; i < reps; i++ {
		ev, w := runPaperPath(t, paperPerfCfg(AlgStandard, dur), true)
		if w < minH {
			minH, evH = w, ev
		}
		ev, w = runPaperPath(t, paperPerfCfg(AlgStandard, dur), false)
		if w < minL {
			minL, evL = w, ev
		}
	}
	heapNs := float64(minH.Nanoseconds()) / float64(evH)
	ladNs := float64(minL.Nanoseconds()) / float64(evL)
	t.Logf("paper path min-of-%d: heap %.2f ns/event, ladder %.2f ns/event (%.2fx)",
		reps, heapNs, ladNs, ladNs/heapNs)
	if ladNs > 1.5*heapNs {
		t.Errorf("ladder %.2f ns/event exceeds 1.5x heap %.2f ns/event", ladNs, heapNs)
	}
}

// BenchmarkPaperPath measures the full paper-path scenario per calendar
// backend, for measuring while you work; bench/'s paper_path workload is
// the figure of record. Run with -benchtime=5x or so — each iteration is a
// complete 25s simulated run.
func BenchmarkPaperPath(b *testing.B) {
	for _, alg := range []Algorithm{AlgStandard, AlgRestricted} {
		for _, v := range []struct {
			name        string
			heap, wheel bool
		}{
			{"heap", true, false},
			{"ladder", false, false},
			{"ladder+wheel", false, true},
		} {
			b.Run(fmt.Sprintf("%s/%s", alg, v.name), func(b *testing.B) {
				var events uint64
				var wall time.Duration
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cfg := paperPerfCfg(alg, 25*time.Second)
					cfg.TimerWheel = v.wheel
					ev, w := runPaperPath(b, cfg, v.heap)
					events += ev
					wall += w
				}
				b.ReportMetric(float64(wall.Nanoseconds())/float64(events), "ns/event")
			})
		}
	}
}
