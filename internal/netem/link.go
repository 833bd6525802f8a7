package netem

import (
	"time"

	"rsstcp/internal/packet"
	"rsstcp/internal/sim"
	"rsstcp/internal/telemetry"
	"rsstcp/internal/unit"
)

// Wire delays every segment by a fixed propagation time with no bandwidth
// limit and no queueing — the speed-of-light component of a path. It is a
// DelayLine: deliveries are FIFO with one armed calendar entry, and event
// ordering matches per-segment scheduling exactly.
type Wire = DelayLine

// NewWire returns a pure-delay element feeding dst.
func NewWire(eng *sim.Engine, delay time.Duration, dst Receiver) *Wire {
	return NewDelayLine(eng, delay, dst)
}

// LinkStats aggregates a link's transmission counters.
type LinkStats struct {
	Sent      int64         // segments fully serialized
	SentBytes int64         // on-the-wire bytes serialized
	Busy      time.Duration // cumulative serialization time
}

// Link is a store-and-forward transmission facility: an attached queueing
// discipline feeding a serializer of fixed rate, followed by a fixed
// propagation delay. It models a router output port (queue = the router
// buffer) or, inside a host, a NIC.
type Link struct {
	eng   *sim.Engine
	rate  unit.Serializer
	delay time.Duration
	queue Queue
	busy  bool
	stats LinkStats
	// prop is the propagation stage: serialized segments enter the delay
	// line and emerge at dst one delay later, FIFO, with a single armed
	// calendar entry for the whole in-flight window.
	prop *DelayLine
	// Serializer state: at most one segment is on the serializer at a time
	// (busy guards it), so holding it in fields lets the completion
	// callback be bound once instead of closed over per segment.
	cur    *packet.Segment
	curST  time.Duration
	txDone func()
	// OnDrop, when set, is invoked for each segment the queue refuses,
	// before the segment is released; it must not retain the segment.
	OnDrop func(seg *packet.Segment)
	// FR, when set, records every queue refusal (KindHopDrop) under hop
	// index Hop. A nil recorder records nothing.
	FR  *telemetry.FlightRecorder
	Hop int32
	// Occupancy integral: ∫ queue-length dt in packet·nanoseconds,
	// accumulated on every length change so per-hop average occupancy is a
	// running counter, available traced or traceless.
	occLast   sim.Time
	occWeight int64
}

// NewLink builds a link serializing at rate, with propagation delay, buffered
// by queue and delivering to dst.
func NewLink(eng *sim.Engine, rate unit.Bandwidth, delay time.Duration, queue Queue, dst Receiver) *Link {
	if rate <= 0 {
		panic("netem: NewLink with non-positive rate")
	}
	if queue == nil {
		panic("netem: NewLink with nil queue")
	}
	if dst == nil {
		panic("netem: NewLink with nil destination")
	}
	l := &Link{eng: eng, rate: unit.NewSerializer(rate), delay: delay, queue: queue}
	l.prop = NewDelayLine(eng, delay, dst)
	l.txDone = l.transmitDone
	return l
}

// Receive enqueues the segment and starts the serializer if idle. A refused
// segment is handed to OnDrop (if set) and released.
func (l *Link) Receive(seg *packet.Segment) {
	seg.Enqueued = l.eng.Now()
	l.accumulateOccupancy()
	if !l.queue.Enqueue(seg) {
		l.FR.Record(l.eng.Now(), telemetry.KindHopDrop, int32(seg.Flow), l.Hop, seg.Seq, int64(l.queue.Len()))
		if l.OnDrop != nil {
			l.OnDrop(seg)
		}
		seg.Release()
		return
	}
	l.maybeTransmit()
}

func (l *Link) maybeTransmit() {
	if l.busy {
		return
	}
	l.accumulateOccupancy()
	seg := l.queue.Dequeue()
	if seg == nil {
		return
	}
	l.busy = true
	l.cur = seg
	l.curST = l.rate.Serialization(seg.Size())
	l.eng.ScheduleAfter(l.curST, l.txDone)
}

func (l *Link) transmitDone() {
	seg, st := l.cur, l.curST
	l.cur = nil
	l.busy = false
	l.stats.Sent++
	l.stats.SentBytes += int64(seg.Size())
	l.stats.Busy += st
	l.prop.Receive(seg)
	l.maybeTransmit()
}

// Flush releases every segment the link holds — queued, on the serializer,
// in propagation — and leaves it idle. Like DelayLine.Flush it is for
// teardown after the engine was reset.
func (l *Link) Flush() {
	Flush(l.queue)
	l.cur.Release()
	l.cur, l.busy = nil, false
	l.prop.Flush()
}

// Queue exposes the attached discipline (for occupancy inspection).
func (l *Link) Queue() Queue { return l.queue }

// Rate returns the serialization rate.
func (l *Link) Rate() unit.Bandwidth { return l.rate.Rate() }

// Stats returns a copy of the transmission counters.
func (l *Link) Stats() LinkStats { return l.stats }

func (l *Link) accumulateOccupancy() {
	now := l.eng.Now()
	if now > l.occLast {
		// Integrate in packet·nanoseconds with integer arithmetic — this
		// runs per segment; the float conversion and seconds divide belong
		// on the read side.
		l.occWeight += int64(l.queue.Len()) * int64(now-l.occLast)
		l.occLast = now
	}
}

// AvgQueueLen returns the time-average attached-queue length in packets over
// [0, now]. It reads the running occupancy integral, so it is exact with or
// without sampled gauge series.
func (l *Link) AvgQueueLen(now sim.Time) float64 {
	l.accumulateOccupancy()
	if now <= 0 {
		return 0
	}
	return float64(l.occWeight) / float64(now)
}

// Utilization returns the fraction of [0, now] the serializer was busy.
func (l *Link) Utilization(now sim.Time) float64 {
	if now <= 0 {
		return 0
	}
	return float64(l.stats.Busy) / float64(now.Duration())
}
