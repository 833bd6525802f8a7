package netem

import (
	"time"

	"rsstcp/internal/packet"
	"rsstcp/internal/sim"
	"rsstcp/internal/unit"
)

// LinkStats aggregates a port's transmission counters.
type LinkStats struct {
	Sent      int64         // segments fully serialized
	SentBytes int64         // on-the-wire bytes serialized
	Busy      time.Duration // cumulative serialization time
}

// PortHook is told after each transmission a Port completes, once the
// segment was delivered and the next transmission started.
type PortHook interface {
	Transmitted(p *Port)
}

// Port is a store-and-forward transmission stage: a DropTail draining
// through a fixed-rate serializer into a Receiver. It is the repo's only
// serializer — a NIC is a Port plus its wakers, a Link a Port plus a
// DelayLine, and every hop of a HopArena one Port behind its admission
// test. At most one segment is on the serializer at a time, held in the
// port's fields, so a completion needs no per-segment closure: every port
// schedules the one function portComplete with itself as the argument.
type Port struct {
	eng   *sim.Engine
	ser   unit.Serializer
	q     *DropTail
	dst   Receiver
	hook  PortHook
	cur   *packet.Segment // on the serializer; nil when idle
	curST time.Duration
	stats LinkStats
	// Occupancy integral: ∫ queue-length dt in packet·nanoseconds,
	// accumulated before every length change so the average occupancy is a
	// running counter, available traced or traceless.
	occLast   sim.Time
	occWeight int64
}

// Init (re)initializes the port in place, idle with zeroed counters,
// buffering in q (which it does not re-initialize) and delivering to dst;
// hook, when non-nil, runs after every completed transmission. A used port
// must be flushed first.
func (p *Port) Init(eng *sim.Engine, rate unit.Bandwidth, q *DropTail, dst Receiver, hook PortHook) {
	if rate <= 0 {
		panic("netem: port with non-positive rate")
	}
	if q == nil {
		panic("netem: port with nil queue")
	}
	if dst == nil {
		panic("netem: port with nil destination")
	}
	*p = Port{eng: eng, ser: unit.NewSerializer(rate), q: q, dst: dst, hook: hook}
}

// Send offers the segment to the queue and starts the serializer if idle.
// It returns false when the queue refuses the segment, which is then NOT
// consumed: the caller keeps it.
func (p *Port) Send(seg *packet.Segment) bool {
	if !p.enqueue(seg) {
		return false
	}
	p.start()
	return true
}

// enqueue buffers the segment without starting the serializer.
func (p *Port) enqueue(seg *packet.Segment) bool {
	p.integrate()
	return p.q.Enqueue(seg)
}

// start puts the oldest queued segment on the serializer if it is idle.
func (p *Port) start() {
	if p.cur != nil || p.q.Len() == 0 {
		return
	}
	p.integrate()
	p.cur = p.q.Dequeue()
	p.curST = p.ser.Serialization(p.cur.Size())
	p.eng.ScheduleArgAfter(p.curST, portComplete, p)
}

func portComplete(p any) { p.(*Port).complete() }

// complete ends the transmission on the serializer: count it, deliver the
// segment, start the next one, then run the hook.
func (p *Port) complete() {
	seg := p.cur
	p.cur = nil
	p.stats.Sent++
	p.stats.SentBytes += int64(seg.Size())
	p.stats.Busy += p.curST
	p.dst.Receive(seg)
	p.start()
	if p.hook != nil {
		p.hook.Transmitted(p)
	}
}

// Flush releases every segment the port holds — queued or on the
// serializer — and leaves it idle. It is for teardown after the engine was
// reset: the pending completion entry must already be gone.
func (p *Port) Flush() {
	p.q.Flush()
	p.cur.Release()
	p.cur = nil
}

func (p *Port) integrate() {
	if now := p.eng.Now(); now > p.occLast {
		// Integer packet·nanoseconds: this runs per segment; the float
		// conversion and seconds divide belong on the read side.
		p.occWeight += int64(p.q.Len()) * int64(now-p.occLast)
		p.occLast = now
	}
}

// Len returns the number of queued packets (not counting the one on the
// serializer).
func (p *Port) Len() int { return p.q.Len() }

// Idle reports whether the port has nothing on the serializer and an empty
// queue.
func (p *Port) Idle() bool { return p.cur == nil && p.q.Len() == 0 }

// QueueStats returns a copy of the queue's counters.
func (p *Port) QueueStats() QueueStats { return p.q.Stats() }

// Stats returns a copy of the transmission counters.
func (p *Port) Stats() LinkStats { return p.stats }

// AvgQueueLen returns the time-average queue length in packets over
// [0, now]. It reads the running occupancy integral, so it is exact with or
// without sampled gauge series.
func (p *Port) AvgQueueLen(now sim.Time) float64 {
	p.integrate()
	if now <= 0 {
		return 0
	}
	return float64(p.occWeight) / float64(now)
}

// Utilization returns the fraction of [0, now] the serializer was busy.
func (p *Port) Utilization(now sim.Time) float64 {
	if now <= 0 {
		return 0
	}
	return float64(p.stats.Busy) / float64(now.Duration())
}
