package sim

import (
	"fmt"
	"sort"
	"testing"
	"time"
)

// wheelOp is one step of a differential script: at instant at, either arm
// timer idx for deadline, stop it, or schedule a plain marker event.
type wheelOp struct {
	at       Time
	idx      int
	kind     int // 0 = arm, 1 = stop, 2 = plain marker event
	deadline Time
}

// runWheelScript replays a script against fresh engine e and returns the
// observable firing log. With useWheel, every timer is wheel-backed; the
// wheel is deliberately small (64 slots of 5ms ≈ 315ms horizon) so the
// script exercises all three placements: in-window direct, on-ring, and
// past-horizon overflow.
func runWheelScript(e *Engine, script []wheelOp, nTimers int, useWheel bool) []string {
	var w *Wheel
	if useWheel {
		w = NewWheel(e, 5*time.Millisecond, 64)
	}
	var log []string
	timers := make([]*Timer, nTimers)
	fires := make([]int, nTimers)
	for i := range timers {
		i := i
		fn := func() {
			log = append(log, fmt.Sprintf("t%d@%d", i, e.Now()))
			fires[i]++
			if fires[i] < 3 && i%3 == 0 {
				// Self-rearm from inside the callback, like an RTO
				// backing off.
				timers[i].Arm(time.Duration(7+i) * time.Millisecond)
			}
		}
		if useWheel {
			timers[i] = NewWheelTimer(w, fn)
		} else {
			timers[i] = NewTimer(e, fn)
		}
	}
	for _, o := range script {
		o := o
		e.Schedule(o.at, func() {
			switch o.kind {
			case 0:
				timers[o.idx].ArmAt(o.deadline)
			case 1:
				timers[o.idx].Stop()
			case 2:
				log = append(log, fmt.Sprintf("m%d@%d", o.idx, e.Now()))
			}
		})
	}
	e.Run()
	if got := e.Leaked(); got != 0 {
		panic(fmt.Sprintf("script leaked %d events (wheel=%v)", got, useWheel))
	}
	if useWheel && w.Resident() != 0 {
		panic(fmt.Sprintf("wheel still holds %d timers after drain", w.Resident()))
	}
	return log
}

// TestWheelMatchesHeapOrdering is the wheel's core contract: a randomized
// arm/re-arm/stop workload produces a byte-identical firing log whether the
// timers ride the wheel or the calendar heap. Deadlines are snapped to a
// 1ms grid so same-instant ties are common — ties are exactly where the
// reserved-sequence discipline matters.
func TestWheelMatchesHeapOrdering(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 1905} {
		rng := NewRNG(seed)
		const nTimers = 24
		const nOps = 3000
		script := make([]wheelOp, nOps)
		for i := range script {
			at := At(time.Duration(rng.Int63n(int64(2 * time.Second))))
			o := wheelOp{at: at, idx: rng.Intn(nTimers), kind: rng.Intn(3)}
			if o.kind == 0 {
				// Delays from 0 out to 600ms: well past the test
				// wheel's ~315ms horizon.
				d := time.Duration(rng.Int63n(int64(600 * time.Millisecond)))
				o.deadline = at.Add(d.Round(time.Millisecond))
			}
			script[i] = o
		}
		sort.SliceStable(script, func(i, j int) bool { return script[i].at < script[j].at })

		heapLog := runWheelScript(heapEngine(t), script, nTimers, false)
		for _, v := range []struct {
			name                string
			useWheel, useLadder bool
		}{
			{"wheel", true, false},
			{"ladder", false, true},
			{"wheel+ladder", true, true},
		} {
			e := NewEngine()
			if !v.useLadder {
				e = heapEngine(t)
			}
			log := runWheelScript(e, script, nTimers, v.useWheel)
			if len(heapLog) != len(log) {
				t.Fatalf("seed %d: heap fired %d observable events, %s %d",
					seed, len(heapLog), v.name, len(log))
			}
			for i := range heapLog {
				if heapLog[i] != log[i] {
					t.Fatalf("seed %d: firing logs diverge at %d: heap %q, %s %q",
						seed, i, heapLog[i], v.name, log[i])
				}
			}
		}
	}
}

// TestWheelTimerStopAndRearm covers the slot-resident lifecycle directly:
// stop suppresses the fire, re-arm relocates, and nothing leaks.
func TestWheelTimerStopAndRearm(t *testing.T) {
	e := NewEngine()
	w := NewWheel(e, 5*time.Millisecond, 64)
	fired := 0
	tm := NewWheelTimer(w, func() { fired++ })

	tm.Arm(50 * time.Millisecond)
	if !tm.Armed() || tm.Deadline() != At(50*time.Millisecond) {
		t.Fatalf("armed=%v deadline=%v after Arm", tm.Armed(), tm.Deadline())
	}
	tm.Stop()
	e.RunUntil(At(100 * time.Millisecond))
	if fired != 0 {
		t.Fatal("stopped wheel timer fired")
	}

	tm.Arm(50 * time.Millisecond) // -> ring
	tm.Arm(20 * time.Millisecond) // earlier: relocate
	e.RunUntil(At(130 * time.Millisecond))
	if fired != 1 {
		t.Fatalf("fired %d times, want 1", fired)
	}

	tm.Arm(2 * time.Millisecond)   // in-window: direct to calendar
	tm.Arm(700 * time.Millisecond) // past horizon: calendar overflow
	e.Run()
	if fired != 2 {
		t.Fatalf("fired %d times, want 2", fired)
	}
	if got := e.Leaked(); got != 0 {
		t.Errorf("leaked %d events", got)
	}
	if w.Resident() != 0 {
		t.Errorf("wheel still holds %d timers", w.Resident())
	}
}

// TestWheelReset: after an engine reset, Wheel.Reset clears the ring and a
// rebuilt population runs cleanly.
func TestWheelReset(t *testing.T) {
	e := NewEngine()
	w := NewWheel(e, 5*time.Millisecond, 64)
	stale := NewWheelTimer(w, func() { t.Error("stale timer fired after reset") })
	stale.Arm(100 * time.Millisecond)

	e.Reset()
	w.Reset()
	if w.Resident() != 0 {
		t.Fatalf("resident %d after Reset, want 0", w.Resident())
	}
	stale.Stop() // must be a no-op on the fresh ring

	fired := 0
	tm := NewWheelTimer(w, func() { fired++ })
	tm.Arm(60 * time.Millisecond)
	e.Run()
	if fired != 1 {
		t.Fatalf("fresh timer fired %d times, want 1", fired)
	}
	if got := e.Leaked(); got != 0 {
		t.Errorf("leaked %d events", got)
	}
}

// TestWheelStats: arms are classified ring vs direct and flushes count.
func TestWheelStats(t *testing.T) {
	e := NewEngine()
	w := NewWheel(e, 5*time.Millisecond, 64)
	a := NewWheelTimer(w, func() {})
	b := NewWheelTimer(w, func() {})
	a.Arm(50 * time.Millisecond) // ring
	b.Arm(2 * time.Millisecond)  // in-window: direct
	e.Run()
	st := w.Stats()
	if st.Armed != 1 || st.Direct != 1 || st.Flushes != 1 || st.Resident != 0 {
		t.Fatalf("stats %+v, want 1 ring arm, 1 direct, 1 flush, 0 resident", st)
	}
}
