package sim

import (
	"testing"
	"time"
)

// TestEventPoolReuse verifies the calendar recycles fired events: a long
// chain of schedule→fire cycles must be served from a tiny pool, not from
// fresh allocations.
func TestEventPoolReuse(t *testing.T) {
	eng := NewEngine()
	n := 0
	var next func()
	next = func() {
		n++
		if n < 10000 {
			eng.ScheduleAfter(time.Microsecond, next)
		}
	}
	eng.ScheduleAfter(time.Microsecond, next)
	eng.Run()

	ps := eng.PoolStats()
	if ps.Created > 4 {
		t.Errorf("created %d events for a depth-1 chain, want <= 4", ps.Created)
	}
	if ps.Reused < 9000 {
		t.Errorf("reused %d times, want ~9999 (pool not recycling)", ps.Reused)
	}
	if got := eng.Leaked(); got != 0 {
		t.Errorf("leaked %d events after run", got)
	}
}

// TestCanceledEventsAreReclaimed verifies Cancel removes the entry from the
// calendar eagerly (no tombstones inflate Pending) and recycles it.
func TestCanceledEventsAreReclaimed(t *testing.T) {
	eng := NewEngine()
	for i := 0; i < 1000; i++ {
		ev := eng.Schedule(At(time.Duration(i+1)*time.Millisecond), func() {})
		eng.Cancel(ev)
		if eng.Pending() != 0 {
			t.Fatalf("tombstone left in the calendar: Pending = %d", eng.Pending())
		}
	}
	ps := eng.PoolStats()
	if ps.Created > 2 {
		t.Errorf("created %d events for cancel loop, want <= 2", ps.Created)
	}
	if ps.Recycled != 1000 {
		t.Errorf("recycled = %d, want 1000", ps.Recycled)
	}
	if got := eng.Leaked(); got != 0 {
		t.Errorf("leaked %d events", got)
	}
}

// TestTimerRearmReclaims covers the RTO pattern: every re-arm cancels the
// previous deadline. The calendar must stay at one entry and the pool must not
// grow — the shape a multi-hour campaign with millions of ACKs depends on.
func TestTimerRearmReclaims(t *testing.T) {
	eng := NewEngine()
	tm := NewTimer(eng, func() {})
	for i := 0; i < 100000; i++ {
		tm.Arm(time.Second)
		if eng.Pending() != 1 {
			t.Fatalf("Pending = %d after re-arm, want 1", eng.Pending())
		}
	}
	tm.Stop()
	if ps := eng.PoolStats(); ps.Created > 2 {
		t.Errorf("created %d events across 100k re-arms, want <= 2", ps.Created)
	}
	if got := eng.Leaked(); got != 0 {
		t.Errorf("leaked %d events", got)
	}
}

// TestStaleHandleCannotCancelRecycledEvent is the safety property behind
// pooling: a handle kept after its event fired must not affect the entry's
// next life.
func TestStaleHandleCannotCancelRecycledEvent(t *testing.T) {
	eng := NewEngine()
	h1 := eng.Schedule(At(time.Millisecond), func() {})
	eng.Run()
	if h1.Pending() {
		t.Fatal("fired event still pending via stale handle")
	}
	// The recycled entry comes back for the next schedule.
	ran := false
	h2 := eng.Schedule(At(2*time.Millisecond), func() { ran = true })
	eng.Cancel(h1) // stale: must not cancel h2's event
	eng.Run()
	if !ran {
		t.Fatal("stale handle canceled a recycled event")
	}
	if h2.Pending() {
		t.Fatal("fired event still pending")
	}
}

// TestScheduleArgAvoidsClosure checks the arg-passing form delivers the
// right argument and recycles like the closure form.
func TestScheduleArgAvoidsClosure(t *testing.T) {
	eng := NewEngine()
	var got []int
	deliver := func(a any) { got = append(got, a.(int)) }
	for i := 0; i < 10; i++ {
		eng.ScheduleArg(At(time.Duration(i+1)*time.Millisecond), deliver, i)
	}
	eng.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("arg order = %v", got)
		}
	}
	if got := eng.Leaked(); got != 0 {
		t.Errorf("leaked %d events", got)
	}
}

// TestAllocBudgetEngine locks in the allocation-free steady state of the
// schedule→fire→recycle loop.
func TestAllocBudgetEngine(t *testing.T) {
	eng := NewEngine()
	var next func()
	next = func() { eng.ScheduleAfter(time.Microsecond, next) }
	// Warm the pool and the calendar.
	eng.ScheduleAfter(time.Microsecond, next)
	for i := 0; i < 64; i++ {
		eng.Step()
	}
	avg := testing.AllocsPerRun(1000, func() {
		eng.Step()
	})
	if avg > 0 {
		t.Errorf("engine schedule/fire loop allocates %.2f/op, want 0", avg)
	}

	tm := NewTimer(eng, func() {})
	tm.Arm(time.Second)
	avg = testing.AllocsPerRun(1000, func() {
		tm.Arm(time.Second)
	})
	tm.Stop()
	if avg > 0 {
		t.Errorf("timer re-arm allocates %.2f/op, want 0", avg)
	}
}
