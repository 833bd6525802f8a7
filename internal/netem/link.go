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

// Link is a store-and-forward stage followed by a fixed propagation delay: a
// Port (the buffer draining through the serializer) feeding a DelayLine. It
// is the one stage both directions are built from: every HopArena row holds
// a Link on its own DropTail, behind the row's admission test, and the
// scenario's shared reverse channel is a Link held by value.
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
	l.Init(eng, rate, delay, queue, dst)
	return l
}

// Init (re)initializes the link in place as NewLink builds it, idle with
// zeroed counters and no recorder, keeping only the delay line's backing
// array. It does not re-initialize queue (see Port.Init); a used link must
// be flushed first.
func (l *Link) Init(eng *sim.Engine, rate unit.Bandwidth, delay time.Duration, queue *DropTail, dst Receiver) {
	l.prop.Init(eng, delay, dst)
	l.Port.Init(eng, rate, queue, &l.prop, nil)
	l.FR, l.Hop = nil, 0
}

// Receive enqueues the segment and starts the serializer if idle. A refused
// segment is recorded and released.
func (l *Link) Receive(seg *packet.Segment) {
	if !l.Send(seg) {
		l.drop(seg)
	}
}

// drop records a refused segment and releases it.
func (l *Link) drop(seg *packet.Segment) {
	l.FR.Record(l.eng.Now(), telemetry.KindHopDrop, int32(seg.Flow), l.Hop, seg.Seq, int64(l.Len()))
	seg.Release()
}

// Flush releases every segment the link holds — queued, on the serializer,
// in propagation — and leaves it idle. Like DelayLine.Flush it is for
// teardown after the engine was reset.
func (l *Link) Flush() {
	l.Port.Flush()
	l.prop.Flush()
}
