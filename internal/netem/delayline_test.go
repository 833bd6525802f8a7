package netem

import (
	"testing"
	"time"

	"rsstcp/internal/packet"
	"rsstcp/internal/sim"
)

// TestDelayLineDeliversFIFOAfterDelay: every admitted segment arrives
// exactly one delay later, in admission order.
func TestDelayLineDeliversFIFOAfterDelay(t *testing.T) {
	eng := sim.NewEngine()
	var got []int64
	var at []sim.Time
	line := NewDelayLine(eng, 10*time.Millisecond, Func(func(seg *packet.Segment) {
		got = append(got, seg.Seq)
		at = append(at, eng.Now())
	}))

	for i := 0; i < 5; i++ {
		seg := &packet.Segment{Seq: int64(i)}
		eng.Schedule(sim.At(time.Duration(i)*time.Millisecond), func() { line.Receive(seg) })
	}
	eng.Run()

	if len(got) != 5 {
		t.Fatalf("delivered %d segments, want 5", len(got))
	}
	for i, seq := range got {
		if seq != int64(i) {
			t.Fatalf("delivery order %v, want FIFO", got)
		}
		want := sim.At(time.Duration(i)*time.Millisecond + 10*time.Millisecond)
		if at[i] != want {
			t.Errorf("segment %d delivered at %v, want %v", i, at[i], want)
		}
	}
	if line.Len() != 0 {
		t.Errorf("line still holds %d segments", line.Len())
	}
}

// TestDelayLineMatchesPerSegmentScheduling is the ordering contract the
// conversion from per-segment events relies on: a delivery and an
// independently scheduled event at the SAME instant must fire in the order
// their sequence numbers were allocated — the delay line reserves at
// admission, so an event scheduled after the admission fires after the
// delivery even though the line's calendar entry may be armed much later.
func TestDelayLineMatchesPerSegmentScheduling(t *testing.T) {
	eng := sim.NewEngine()
	var order []string
	line := NewDelayLine(eng, 10*time.Millisecond, Func(func(seg *packet.Segment) {
		order = append(order, "deliver")
	}))

	// Admission one: keeps the line armed on entry zero until t=10ms, so
	// admission two's entry is only armed from inside fire() — after the
	// competitor below was scheduled.
	eng.Schedule(sim.At(0), func() { line.Receive(&packet.Segment{Seq: 0}) })
	// Admission two at t=2ms, due t=12ms.
	eng.Schedule(sim.At(2*time.Millisecond), func() {
		line.Receive(&packet.Segment{Seq: 1})
		// Competitor scheduled AFTER the admission, due at the same
		// instant: per-segment scheduling would fire it second.
		eng.Schedule(sim.At(12*time.Millisecond), func() { order = append(order, "competitor") })
	})
	eng.Run()

	want := []string{"deliver", "deliver", "competitor"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Fatalf("fire order %v, want %v", order, want)
	}
}

// TestDelayLineCompaction: a long steady stream must not grow the ring
// without bound.
func TestDelayLineCompaction(t *testing.T) {
	eng := sim.NewEngine()
	delivered := 0
	line := NewDelayLine(eng, time.Millisecond, Func(func(seg *packet.Segment) {
		seg.Release()
		delivered++
	}))
	pool := packet.NewPool()
	n := 10000
	var feed func()
	i := 0
	feed = func() {
		if i >= n {
			return
		}
		seg := pool.Get()
		seg.Seq = int64(i)
		i++
		line.Receive(seg)
		eng.ScheduleAfter(100*time.Microsecond, feed)
	}
	feed()
	eng.Run()
	if delivered != n {
		t.Fatalf("delivered %d, want %d", delivered, n)
	}
	if gets, rels := pool.Counters(); gets != rels {
		t.Errorf("segment leak through delay line: %d gets, %d releases", gets, rels)
	}
}

// TestDelayLineFollowsOccupancy: a line's FIFO is sized by what it has
// carried at once, not by what has passed through. A steady one-in/one-out
// line at each in-flight count from 1 to 200 keeps its backing array within
// four times the high-water mark. When fire never rewound an emptied line
// and compacted only past 64 dead slots, and Receive grew by append, a line
// carrying one segment at a time held 74 slots.
func TestDelayLineFollowsOccupancy(t *testing.T) {
	eng := sim.NewEngine()
	line := NewDelayLine(eng, time.Millisecond, Func(func(*packet.Segment) {}))
	seg := &packet.Segment{}
	for k := 1; k <= 200; k++ {
		for line.Len() < k {
			line.Receive(seg)
		}
		for range 4*k + 100 {
			eng.Step() // delivers the head
			line.Receive(seg)
			if c := cap(line.q.items); c > 4*k {
				t.Fatalf("%d in flight: line capacity %d, over 4x the high-water mark", k, c)
			}
		}
	}
}
