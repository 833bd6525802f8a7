package netem

import (
	"time"

	"rsstcp/internal/packet"
	"rsstcp/internal/sim"
	"rsstcp/internal/telemetry"
)

// Loss drops each passing segment independently with probability P.
type Loss struct {
	// P is the independent drop probability in [0, 1].
	P float64
	// RNG supplies randomness; nil means never drop.
	RNG  *sim.RNG
	Next Receiver
	// FR records each injected drop (KindLossInject) at Eng's current time
	// under hop index Hop. All three fields must be set together; a nil
	// recorder records nothing.
	FR  *telemetry.FlightRecorder
	Eng *sim.Engine
	Hop int32

	dropped int64
}

// Receive drops or forwards the segment. Dropped segments are released.
func (l *Loss) Receive(seg *packet.Segment) {
	if l.P > 0 && l.RNG != nil && l.RNG.Bool(l.P) {
		l.dropped++
		if l.FR != nil {
			l.FR.Record(l.Eng.Now(), telemetry.KindLossInject, int32(seg.Flow), l.Hop, seg.Seq, 0)
		}
		seg.Release()
		return
	}
	l.Next.Receive(seg)
}

// Dropped returns how many segments were discarded.
func (l *Loss) Dropped() int64 { return l.dropped }

// Duplicator forwards every segment and, with probability P, an extra copy.
type Duplicator struct {
	P    float64
	RNG  *sim.RNG
	Next Receiver
	// FR records each extra copy (KindDup) at Eng's current time under hop
	// index Hop; see Loss.FR.
	FR  *telemetry.FlightRecorder
	Eng *sim.Engine
	Hop int32

	duplicated int64
}

// Receive forwards the segment, sometimes twice. The copy is made before
// the original is handed off: forwarding transfers ownership, and a
// synchronous consumer may release (zero and recycle) the segment.
func (d *Duplicator) Receive(seg *packet.Segment) {
	var dup *packet.Segment
	if d.P > 0 && d.RNG != nil && d.RNG.Bool(d.P) {
		d.duplicated++
		if d.FR != nil {
			d.FR.Record(d.Eng.Now(), telemetry.KindDup, int32(seg.Flow), d.Hop, seg.Seq, 0)
		}
		dup = seg.Clone()
	}
	d.Next.Receive(seg)
	if dup != nil {
		d.Next.Receive(dup)
	}
}

// Duplicated returns how many extra copies were emitted.
func (d *Duplicator) Duplicated() int64 { return d.duplicated }

// Reorderer delays randomly chosen segments by an extra interval, letting
// later traffic overtake them — the classic cause of spurious duplicate ACKs.
// The held segments ride a DelayLine, which orders them exactly as a
// calendar entry per segment would.
type Reorderer struct {
	eng *sim.Engine
	// P is the probability a segment is held back.
	P   float64
	RNG *sim.RNG
	// FR records each held-back segment (KindReorder, B = extra delay in
	// nanoseconds) under hop index Hop. A nil recorder records nothing.
	FR  *telemetry.FlightRecorder
	Hop int32

	held      DelayLine // the extra delay, into the next element
	reordered int64
}

// NewReorderer builds a reorder injector; a negative delay is zero.
func NewReorderer(eng *sim.Engine, p float64, delay time.Duration, rng *sim.RNG, next Receiver) *Reorderer {
	r := new(Reorderer)
	r.Init(eng, p, delay, rng, next)
	return r
}

// Init (re)initializes the reorderer in place as NewReorderer builds it,
// with a zero count and no recorder, keeping only the held line's backing
// array. A used reorderer must be flushed first.
func (r *Reorderer) Init(eng *sim.Engine, p float64, delay time.Duration, rng *sim.RNG, next Receiver) {
	r.eng, r.P, r.RNG, r.FR, r.Hop, r.reordered = eng, p, rng, nil, 0, 0
	r.held.Init(eng, max(delay, 0), next)
}

// Receive forwards the segment now, or after the extra delay.
func (r *Reorderer) Receive(seg *packet.Segment) {
	if r.P > 0 && r.RNG != nil && r.RNG.Bool(r.P) {
		r.reordered++
		r.FR.Record(r.eng.Now(), telemetry.KindReorder, int32(seg.Flow), r.Hop, seg.Seq, int64(r.held.delay))
		r.held.Receive(seg)
		return
	}
	r.held.dst.Receive(seg)
}

// Flush releases every held segment (see DelayLine.Flush).
func (r *Reorderer) Flush() { r.held.Flush() }

// Reordered returns how many segments were held back.
func (r *Reorderer) Reordered() int64 { return r.reordered }
