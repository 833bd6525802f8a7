package sim

import (
	"testing"
	"time"
)

// TestEngineReset: a reset engine must behave like a new one — epoch clock,
// empty calendar, fresh sequence numbering — while keeping its event pool.
func TestEngineReset(t *testing.T) {
	e := NewEngine()
	fired := 0
	for i := 0; i < 10; i++ {
		e.ScheduleAfter(time.Duration(i)*time.Millisecond, func() { fired++ })
	}
	e.RunUntil(At(4 * time.Millisecond))
	if fired != 5 {
		t.Fatalf("fired %d events before reset, want 5", fired)
	}
	pendingBefore := e.Pending()
	if pendingBefore == 0 {
		t.Fatal("test needs pending events at reset")
	}

	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 || e.Processed() != 0 {
		t.Fatalf("after reset: now=%v pending=%d processed=%d", e.Now(), e.Pending(), e.Processed())
	}
	if got := e.Leaked(); got != 0 {
		t.Errorf("reset leaked %d events", got)
	}
	// The canceled entries went back to the pool: scheduling again reuses
	// them instead of allocating.
	ps := e.PoolStats()
	if ps.Free < pendingBefore {
		t.Errorf("free list %d after reset, want >= %d recycled entries", ps.Free, pendingBefore)
	}
	reusedBefore := ps.Reused
	ran := false
	e.Schedule(At(time.Millisecond), func() { ran = true })
	if got := e.PoolStats().Reused; got != reusedBefore+1 {
		t.Errorf("schedule after reset did not reuse a pooled entry (reused %d -> %d)", reusedBefore, got)
	}
	e.Run()
	if !ran {
		t.Error("event scheduled after reset never ran")
	}
}

func TestEngineResetStaleHandles(t *testing.T) {
	e := NewEngine()
	h := e.Schedule(At(time.Second), func() { t.Error("canceled event fired") })
	e.Reset()
	if h.Pending() {
		t.Error("handle still pending after reset")
	}
	e.Cancel(h) // must be a no-op, not a corruption
	e.Schedule(At(time.Millisecond), func() {})
	e.Run()
}

// TestScheduleReservedOrdering: events at the same instant must fire in
// reservation order, regardless of the order the calendar entries were
// created in.
func TestScheduleReservedOrdering(t *testing.T) {
	e := NewEngine()
	var order []int

	s1 := e.ReserveSeq()
	s2 := e.ReserveSeq()
	// Arm in reverse: the later-reserved number is scheduled first.
	record := func(n any) { order = append(order, n.(int)) }
	e.ScheduleReserved(At(time.Millisecond), s2, record, 2)
	e.ScheduleReserved(At(time.Millisecond), s1, record, 1)
	// An immediately-scheduled event at the same instant lands after both
	// reservations.
	e.Schedule(At(time.Millisecond), func() { order = append(order, 3) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("fire order %v, want [1 2 3]", order)
	}
}

func TestScheduleReservedRejectsUnreserved(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("unreserved sequence number accepted")
		}
	}()
	e.ScheduleReserved(At(time.Millisecond), 99, func(any) {}, nil)
}

// TestLazyTimerMatchesEagerOrdering pins the lazy re-arm contract: a timer
// whose deadline is pushed forward on every tick must fire at the final
// deadline, ordered among same-instant events exactly as if each Arm had
// eagerly rescheduled — i.e. by the sequence number of the LAST Arm.
func TestLazyTimerMatchesEagerOrdering(t *testing.T) {
	e := NewEngine()
	var order []string

	tm := NewTimer(e, func() { order = append(order, "timer") })
	tm.Arm(2 * time.Millisecond) // stale deadline: will be superseded
	e.Schedule(At(5*time.Millisecond), func() { order = append(order, "before") })
	tm.ArmAt(At(5 * time.Millisecond)) // reserved after "before" -> fires after it
	e.Schedule(At(5*time.Millisecond), func() { order = append(order, "after") })

	e.Run()
	want := []string{"before", "timer", "after"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("fire order %v, want %v", order, want)
	}
}

func TestLazyTimerDeadlineAndStop(t *testing.T) {
	e := NewEngine()
	fired := 0
	tm := NewTimer(e, func() { fired++ })

	tm.Arm(10 * time.Millisecond)
	tm.Arm(30 * time.Millisecond) // lazy: stale entry stays, deadline moves
	if got := tm.Deadline(); got != At(30*time.Millisecond) {
		t.Errorf("Deadline = %v, want the superseding deadline", got)
	}
	if !tm.Armed() {
		t.Error("timer not armed after re-arm")
	}
	e.RunUntil(At(20 * time.Millisecond))
	if fired != 0 {
		t.Fatal("timer fired at the stale deadline")
	}
	e.RunUntil(At(40 * time.Millisecond))
	if fired != 1 {
		t.Fatalf("timer fired %d times, want 1", fired)
	}
	if tm.Armed() {
		t.Error("timer still armed after firing")
	}

	// Stop between a stale entry and its deadline must suppress the fire.
	tm.Arm(10 * time.Millisecond)
	tm.Arm(30 * time.Millisecond)
	tm.Stop()
	if tm.Armed() {
		t.Error("timer armed after Stop")
	}
	e.RunUntil(At(100 * time.Millisecond))
	if fired != 1 {
		t.Fatalf("stopped timer fired (count %d)", fired)
	}
	if got := e.Leaked(); got != 0 {
		t.Errorf("lazy rearm leaked %d events", got)
	}
}

// TestLazyTimerEarlierDeadline: moving a deadline EARLIER cannot be lazy —
// the stale entry would fire too late — so it must reschedule eagerly.
func TestLazyTimerEarlierDeadline(t *testing.T) {
	e := NewEngine()
	var firedAt Time
	tm := NewTimer(e, func() { firedAt = e.Now() })
	tm.Arm(30 * time.Millisecond)
	tm.Arm(10 * time.Millisecond)
	e.Run()
	if firedAt != At(10*time.Millisecond) {
		t.Fatalf("fired at %v, want the earlier deadline", firedAt)
	}
}
