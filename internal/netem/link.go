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

// Link is a router output port followed by a fixed propagation delay: a
// Port (the router buffer draining through the serializer) feeding a
// DelayLine. It carries the scenario's shared reverse channel.
type Link struct {
	Port
	prop DelayLine
	// FR, when set, records every queue refusal (KindHopDrop) under hop
	// index Hop. A nil recorder records nothing.
	FR  *telemetry.FlightRecorder
	Hop int32
}

// NewLink builds a link serializing at rate, with propagation delay, buffered
// by queue and delivering to dst.
func NewLink(eng *sim.Engine, rate unit.Bandwidth, delay time.Duration, queue *DropTail, dst Receiver) *Link {
	l := new(Link)
	l.prop.Init(eng, delay, dst)
	l.Port.Init(eng, rate, queue, &l.prop, nil)
	return l
}

// Receive enqueues the segment and starts the serializer if idle. A refused
// segment is recorded and released.
func (l *Link) Receive(seg *packet.Segment) {
	if !l.Send(seg) {
		l.FR.Record(l.eng.Now(), telemetry.KindHopDrop, int32(seg.Flow), l.Hop, seg.Seq, int64(l.Len()))
		seg.Release()
	}
}

// Flush releases every segment the link holds — queued, on the serializer,
// in propagation — and leaves it idle. Like DelayLine.Flush it is for
// teardown after the engine was reset.
func (l *Link) Flush() {
	l.Port.Flush()
	l.prop.Flush()
}
