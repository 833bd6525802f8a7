package netem

import (
	"time"

	"rsstcp/internal/packet"
	"rsstcp/internal/sim"
)

// delayed is one segment in flight on a DelayLine: its due instant and the
// engine sequence number reserved when it was admitted.
type delayed struct {
	at  sim.Time
	seq uint64
	seg *packet.Segment
}

// DelayLine delivers segments to a fixed destination a constant delay after
// admission, preserving admission order. Semantically it is identical to
// scheduling one engine event per segment (what Wire did before); the
// difference is purely mechanical: in-flight segments wait in a local FIFO
// and only the earliest due delivery holds a calendar entry. A propagation
// stage carries a bandwidth-delay product of segments (hundreds on the paper
// path), so per-segment scheduling was what kept the engine's heap deep —
// with delay lines the calendar holds a handful of entries and every
// push/pop sifts through a few levels instead of eight.
//
// Ordering is exactly what per-segment scheduling would produce: Receive
// reserves the engine sequence number the segment would have been scheduled
// with, and the head entry is armed with its reserved number, so ties at
// equal instants resolve identically (see TestDelayLineMatchesPerSegment
// Scheduling). The FIFO invariant this relies on — due times never decrease
// — holds because the delay is constant and virtual time is monotone.
type DelayLine struct {
	eng   *sim.Engine
	delay time.Duration
	dst   Receiver
	q     fifo[delayed]
	armed bool
}

// NewDelayLine returns a pure-delay FIFO element feeding dst.
func NewDelayLine(eng *sim.Engine, delay time.Duration, dst Receiver) *DelayLine {
	l := new(DelayLine)
	l.Init(eng, delay, dst)
	return l
}

// Init (re)initializes the line in place, empty and unarmed, keeping only
// the FIFO's backing array of a used value. A used line must be flushed
// first.
func (l *DelayLine) Init(eng *sim.Engine, delay time.Duration, dst Receiver) {
	if dst == nil {
		panic("netem: delay line with nil destination")
	}
	items := l.q.items[:0]
	*l = DelayLine{eng: eng, delay: delay, dst: dst}
	l.q.items = items
}

// Flush releases every segment in flight and leaves the line empty and
// unarmed. It is for tearing a line down after its engine was reset: the
// armed calendar entry, if any, must already be gone.
func (l *DelayLine) Flush() {
	l.q.flush(func(d delayed) { d.seg.Release() })
	l.armed = false
}

// Receive admits the segment for delivery one delay from now, after every
// segment admitted before it.
func (l *DelayLine) Receive(seg *packet.Segment) {
	l.q.push(delayed{
		at:  l.eng.Now().Add(l.delay),
		seq: l.eng.ReserveSeq(),
		seg: seg,
	})
	if !l.armed {
		l.arm()
	}
}

func (l *DelayLine) arm() {
	h := l.q.front()
	l.eng.ScheduleReserved(h.at, h.seq, delayLineFire, l)
	l.armed = true
}

func delayLineFire(l any) { l.(*DelayLine).fire() }

// fire delivers the head segment. The next head is armed before the
// delivery cascade runs, so events the delivery schedules at the same
// instant order against it exactly as under per-segment scheduling.
func (l *DelayLine) fire() {
	seg := l.q.pop().seg
	l.armed = false
	if l.q.len() > 0 {
		l.arm()
	}
	l.dst.Receive(seg)
}

// Len returns the number of segments in flight on the line.
func (l *DelayLine) Len() int { return l.q.len() }
