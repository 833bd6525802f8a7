package netem

import (
	"time"

	"rsstcp/internal/packet"
	"rsstcp/internal/sim"
	"rsstcp/internal/telemetry"
	"rsstcp/internal/unit"
)

// HopSpec configures one hop of a HopArena: serialization rate, propagation
// delay, buffer capacity in packets, and (optionally) RED admission with the
// seed for its drop decisions. Watch, when positive, arms the hop's one-shot
// utilization latch: the first transmission completion at which the hop's
// cumulative busy fraction reaches Watch is kept (UtilizationReachedAt), so
// ramp-speed metrics need no sampled gauge series.
type HopSpec struct {
	Rate    unit.Bandwidth
	Delay   time.Duration
	Queue   int
	RED     *REDConfig
	REDSeed uint64
	Watch   float64
}

// redState is one hop's RED admission machinery. The RNG is embedded by
// value (sim.RNG is 32 bytes), so a RED hop's drop decisions read no pointer
// beyond the arena's own slice.
type redState struct {
	cfg   REDConfig
	rng   sim.RNG
	avg   float64
	count int
}

// HopArena is the forward path as parallel arrays indexed by hop id: per hop
// a serializer and its counters, a DropTail buffer (with RED admission in
// front of it on RED hops) and a DelayLine for propagation. A hop behaves as
// a netem.Link over the same queue — same engine calls (ScheduleAfter for
// serialization, ReserveSeq/ScheduleReserved for propagation), same RNG draw
// points, same counter updates in the same order.
//
// Per-flow routing is a span over the arena: exit[flow] is the last hop a
// flow traverses, and hand-off between hops is index dispatch (hop i's
// propagation output enters hop i+1 by index, through its hopEgress).
// Injector chains (loss/reorder/duplicate) remain ordinary Receivers fronting
// a hop's ingress via SetEntry.
//
// Configure rebuilds the arena in place, reusing every backing slice, so a
// campaign worker's Scenario.Reset re-shapes the path without allocating on
// the hot path again. Segments the previous shape still held go back to
// their pool first.
type HopArena struct {
	eng *sim.Engine
	out Receiver // egress for flows exiting the path (the scenario demux)
	fr  *telemetry.FlightRecorder
	n   int

	// Serializer stage (one transmission in flight per hop).
	rate   []unit.Serializer
	busy   []bool
	cur    []*packet.Segment
	curST  []time.Duration
	sent   []int64
	sentB  []int64
	busyNS []time.Duration

	// Utilization watch latch (see HopSpec.Watch).
	watchFrac []float64
	watchAt   []sim.Time
	watched   []bool

	// Occupancy integral: ∫ queue-length dt in packet·nanoseconds.
	occLast   []sim.Time
	occWeight []int64

	// FIFO buffer per hop (the RED hops' inner queue too), with RED
	// admission in front of it, gated by isRED.
	q     []DropTail
	isRED []bool
	red   []redState

	// Propagation per hop. The lines are pointers because each one's bound
	// fire callback holds its address; line i delivers to propOut[i].
	prop    []*DelayLine
	propOut []hopEgress

	// Drop accounting: queue refusals per hop and summed.
	drops     []int64
	dropTotal int64

	// Ingress dispatch: entry[i] is the injector chain fronting hop i (nil
	// when the hop has none), ingress[i] the index-dispatch adapter behind
	// it. Both persist across Configure.
	entry   []Receiver
	ingress []hopIngress

	// Bound per-hop transmission callbacks, created once per hop id and
	// reused across Configure, so completions schedule no closures.
	txDone []func()

	// Per-flow route ends over the arena: the last hop by FlowID.
	exit []int32
}

// hopIngress adapts hop index i to the Receiver interface for NIC and
// injector attachment.
type hopIngress struct {
	a *HopArena
	i int
}

func (h *hopIngress) Receive(seg *packet.Segment) { h.a.Receive(h.i, seg) }

// hopEgress adapts hop index i's propagation output to the Receiver its
// delay line delivers to.
type hopEgress struct {
	a *HopArena
	i int
}

func (h *hopEgress) Receive(seg *packet.Segment) { h.a.egress(h.i, seg) }

// NewHopArena returns an empty arena; Configure shapes it.
func NewHopArena(eng *sim.Engine) *HopArena {
	return &HopArena{eng: eng}
}

// grow returns s resized to n, reusing capacity and zeroing the live prefix.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	s = s[:n]
	var zero T
	for i := range s {
		s[i] = zero
	}
	return s
}

// flush releases every segment the configured hops hold — buffered, on a
// serializer, in propagation — and empties their FIFOs, keeping capacity.
func (a *HopArena) flush() {
	for i := 0; i < a.n; i++ {
		Flush(&a.q[i])
		a.cur[i].Release()
		a.cur[i] = nil
		a.prop[i].Flush()
	}
}

// Configure (re)shapes the arena for the given hop chain, delivering exiting
// segments to out and recording queue refusals in fr. All backing storage is
// reused; per-hop queues keep their warmed capacity from earlier runs, and
// whatever the previous shape left in them is released. Reconfiguring is for
// an engine that was reset: the arena's pending calendar entries must
// already be gone.
func (a *HopArena) Configure(specs []HopSpec, out Receiver, fr *telemetry.FlightRecorder) {
	if out == nil {
		panic("netem: HopArena.Configure with nil egress")
	}
	a.flush()
	n := len(specs)
	a.out, a.fr, a.n = out, fr, n

	a.rate = grow(a.rate, n)
	a.busy = grow(a.busy, n)
	a.cur = grow(a.cur, n)
	a.curST = grow(a.curST, n)
	a.sent = grow(a.sent, n)
	a.sentB = grow(a.sentB, n)
	a.busyNS = grow(a.busyNS, n)
	a.watchFrac = grow(a.watchFrac, n)
	a.watchAt = grow(a.watchAt, n)
	a.watched = grow(a.watched, n)
	a.occLast = grow(a.occLast, n)
	a.occWeight = grow(a.occWeight, n)
	a.isRED = grow(a.isRED, n)
	a.red = grow(a.red, n)
	a.drops = grow(a.drops, n)
	a.entry = grow(a.entry, n)
	a.exit = a.exit[:0]

	// Queues, delay lines and bound callbacks persist: only new hop ids
	// allocate, and a reset scenario re-runs on warm (flushed) capacity.
	for len(a.txDone) < n {
		i := len(a.txDone)
		a.txDone = append(a.txDone, func() { a.transmitDone(i) })
		a.q = append(a.q, DropTail{})
		a.prop = append(a.prop, new(DelayLine))
		a.ingress = append(a.ingress, hopIngress{})
		a.propOut = append(a.propOut, hopEgress{})
	}
	for i := range a.ingress {
		a.ingress[i] = hopIngress{a: a, i: i}
		a.propOut[i] = hopEgress{a: a, i: i}
	}

	for i, sp := range specs {
		if sp.Rate <= 0 {
			panic("netem: HopArena hop with non-positive rate")
		}
		a.rate[i] = unit.NewSerializer(sp.Rate)
		a.prop[i].Init(a.eng, sp.Delay, &a.propOut[i])
		a.watchFrac[i] = sp.Watch
		limit := sp.Queue
		if sp.RED != nil {
			cfg := *sp.RED
			if cfg.Capacity <= 0 {
				panic("netem: RED requires a positive capacity")
			}
			if cfg.MaxThreshold <= cfg.MinThreshold {
				panic("netem: RED MaxThreshold must exceed MinThreshold")
			}
			a.isRED[i] = true
			a.red[i] = redState{cfg: cfg, rng: *sim.NewRNG(sp.REDSeed)}
			limit = cfg.Capacity
		}
		a.q[i].Init(limit)
	}
	a.dropTotal = 0
}

// SetEntry fronts hop i's ingress with an injector chain (nil clears it).
// The chain's tail must feed Direct(i), not Ingress(i).
func (a *HopArena) SetEntry(i int, r Receiver) { a.entry[i] = r }

// Direct returns hop i's raw index-dispatch ingress, bypassing injectors.
func (a *HopArena) Direct(i int) Receiver { return &a.ingress[i] }

// Ingress returns the Receiver traffic entering hop i must use: the injector
// chain when one is set, the raw ingress otherwise.
func (a *HopArena) Ingress(i int) Receiver {
	if e := a.entry[i]; e != nil {
		return e
	}
	return &a.ingress[i]
}

// SetSpan records a flow's route as the hop range [first, last] over the
// arena. Egress dispatch exits the flow at last; its traffic enters where
// its sender feeds it (Ingress(first)), so the arena keeps only the exit.
func (a *HopArena) SetSpan(flow packet.FlowID, first, last int) {
	for int(flow) >= len(a.exit) {
		a.exit = append(a.exit, 0)
	}
	a.exit[flow] = int32(last)
}

func (a *HopArena) accOcc(i int, now sim.Time) {
	if now > a.occLast[i] {
		a.occWeight[i] += int64(a.q[i].Len()) * int64(now-a.occLast[i])
		a.occLast[i] = now
	}
}

// enqueue applies hop i's admission test and buffers the segment, returning
// false on refusal. The tail drop is the DropTail's own; a RED hop tests its
// early drop and its capacity first, counting a refusal in the queue's
// Dropped and restarting the inter-drop count.
func (a *HopArena) enqueue(i int, seg *packet.Segment) bool {
	q := &a.q[i]
	if !a.isRED[i] {
		return q.Enqueue(seg)
	}
	r := &a.red[i]
	r.avg = (1-r.cfg.Weight)*r.avg + r.cfg.Weight*float64(q.Len())
	if a.redDrop(r) || q.Len() >= q.Capacity() {
		q.stats.Dropped++
		r.count = 0
		return false
	}
	q.Enqueue(seg)
	r.count++
	return true
}

// redDrop evaluates the early-drop probability for the current average (see
// REDConfig), with inter-drop gaps uniformized by the count of arrivals since
// the last drop as in the original paper.
func (a *HopArena) redDrop(r *redState) bool {
	switch {
	case r.avg < r.cfg.MinThreshold:
		return false
	case r.avg >= r.cfg.MaxThreshold:
		return true
	default:
		p := r.cfg.MaxP * (r.avg - r.cfg.MinThreshold) /
			(r.cfg.MaxThreshold - r.cfg.MinThreshold)
		den := 1 - float64(r.count)*p
		if den < 1e-9 {
			den = 1e-9
		}
		pa := p / den
		if pa < 0 || pa > 1 {
			pa = 1
		}
		return r.rng.Bool(pa)
	}
}

// Receive admits the segment at hop i: buffer it (dropping on refusal, with
// the same flight-record/counter/release order as Link.Receive) and start
// the serializer if idle.
func (a *HopArena) Receive(i int, seg *packet.Segment) {
	seg.Enqueued = a.eng.Now()
	a.accOcc(i, a.eng.Now())
	if !a.enqueue(i, seg) {
		a.fr.Record(a.eng.Now(), telemetry.KindHopDrop, int32(seg.Flow), int32(i), seg.Seq, int64(a.q[i].Len()))
		a.drops[i]++
		a.dropTotal++
		seg.Release()
		return
	}
	a.maybeTransmit(i)
}

func (a *HopArena) maybeTransmit(i int) {
	if a.busy[i] {
		return
	}
	a.accOcc(i, a.eng.Now())
	seg := a.q[i].Dequeue()
	if seg == nil {
		return
	}
	a.busy[i] = true
	a.cur[i] = seg
	st := a.rate[i].Serialization(seg.Size())
	a.curST[i] = st
	a.eng.ScheduleAfter(st, a.txDone[i])
}

func (a *HopArena) transmitDone(i int) {
	seg, st := a.cur[i], a.curST[i]
	a.cur[i] = nil
	a.busy[i] = false
	a.sent[i]++
	a.sentB[i] += int64(seg.Size())
	a.busyNS[i] += st
	if a.watchFrac[i] > 0 && !a.watched[i] &&
		float64(a.busyNS[i]) >= a.watchFrac[i]*float64(a.eng.Now().Duration()) {
		a.watched[i], a.watchAt[i] = true, a.eng.Now()
	}
	a.prop[i].Receive(seg)
	a.maybeTransmit(i)
}

// egress dispatches hop i's propagation output by index: flows whose span
// ends here (and anything leaving the last hop) exit to the arena's out
// Receiver, everything else enters hop i+1's ingress.
func (a *HopArena) egress(i int, seg *packet.Segment) {
	if i+1 < a.n {
		if f := int(seg.Flow); f >= len(a.exit) || int(a.exit[f]) != i {
			if e := a.entry[i+1]; e != nil {
				e.Receive(seg)
				return
			}
			a.Receive(i+1, seg)
			return
		}
	}
	a.out.Receive(seg)
}

// QueueLen returns hop i's buffered packet count.
func (a *HopArena) QueueLen(i int) int { return a.q[i].Len() }

// QueueStats returns a copy of hop i's queue counters.
func (a *HopArena) QueueStats(i int) QueueStats { return a.q[i].Stats() }

// Drops returns hop i's queue-refusal count.
func (a *HopArena) Drops(i int) int64 { return a.drops[i] }

// DropTotal returns queue refusals summed over all hops.
func (a *HopArena) DropTotal() int64 { return a.dropTotal }

// Stats returns hop i's transmission counters (see LinkStats).
func (a *HopArena) Stats(i int) LinkStats {
	return LinkStats{Sent: a.sent[i], SentBytes: a.sentB[i], Busy: a.busyNS[i]}
}

// Rate returns hop i's serialization rate.
func (a *HopArena) Rate(i int) unit.Bandwidth { return a.rate[i].Rate() }

// AvgQueueLen returns hop i's time-average queue length in packets over
// [0, now].
func (a *HopArena) AvgQueueLen(i int, now sim.Time) float64 {
	a.accOcc(i, a.eng.Now())
	if now <= 0 {
		return 0
	}
	return float64(a.occWeight[i]) / float64(now)
}

// Utilization returns the fraction of [0, now] hop i's serializer was busy.
func (a *HopArena) Utilization(i int, now sim.Time) float64 {
	if now <= 0 {
		return 0
	}
	return float64(a.busyNS[i]) / float64(now.Duration())
}

// UtilizationReachedAt returns the instant hop i's watched utilization
// fraction was first reached, and whether it has been.
func (a *HopArena) UtilizationReachedAt(i int) (sim.Time, bool) {
	return a.watchAt[i], a.watched[i]
}

// Hop returns a handle for hop i, giving pointer-free call sites a stable
// reference into the arena.
func (a *HopArena) Hop(i int) HopRef { return HopRef{a: a, i: i} }

// HopRef is a (arena, hop id) pair — the arena's replacement for handing out
// *netem.Link. The zero value is invalid.
type HopRef struct {
	a *HopArena
	i int
}

// Index returns the hop id.
func (r HopRef) Index() int { return r.i }

// Rate returns the hop's serialization rate.
func (r HopRef) Rate() unit.Bandwidth { return r.a.Rate(r.i) }

// Utilization returns the hop's cumulative busy fraction at now.
func (r HopRef) Utilization(now sim.Time) float64 { return r.a.Utilization(r.i, now) }

// AvgQueueLen returns the hop's time-average queue length at now.
func (r HopRef) AvgQueueLen(now sim.Time) float64 { return r.a.AvgQueueLen(r.i, now) }

// UtilizationReachedAt returns the hop's watched-utilization latch.
func (r HopRef) UtilizationReachedAt() (sim.Time, bool) { return r.a.UtilizationReachedAt(r.i) }
