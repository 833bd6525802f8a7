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
// utilization latch (see Link.WatchUtilization).
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

// HopArena is the forward path flattened into parallel arrays indexed by hop
// id: the serializer, drop-tail/RED queue, propagation delay line and
// per-hop counters that netem.Link + Queue + DelayLine hold behind three
// pointer hops live here as packed per-hop slices, so one segment's
// traversal of the chain touches contiguous memory instead of chasing a
// heap-allocated object graph. Semantics are bit-identical to the object
// pipeline — same engine calls (ScheduleAfter for serialization,
// ReserveSeq/ScheduleReserved for propagation), same RNG draw points, same
// counter updates in the same order — which the differential tests assert.
//
// Per-flow routing is a span over the arena: exit[flow] is the last hop a
// flow traverses, and hand-off between hops is index dispatch (hop i's
// propagation output enters hop i+1 by index) rather than a chain of
// Receiver pointers. Injector chains (loss/reorder/duplicate) remain
// ordinary Receivers fronting a hop's ingress via SetEntry.
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

	// Utilization watch latch (see Link.WatchUtilization).
	watchFrac []float64
	watchAt   []sim.Time
	watched   []bool

	// Occupancy integral: ∫ queue-length dt in packet·nanoseconds.
	occLast   []sim.Time
	occWeight []int64

	// FIFO buffer per hop (the RED hops' inner queue too).
	qcap   []int
	qseg   [][]*packet.Segment
	qhead  []int
	qbytes []unit.ByteSize
	qstats []QueueStats

	// RED admission, gated by isRED.
	isRED []bool
	red   []redState

	// Propagation delay line per hop (see DelayLine for the ordering
	// argument; the arena inlines the same FIFO + single-armed-entry shape).
	delay  []time.Duration
	pq     [][]delayed
	phead  []int
	parmed []bool

	// Drop accounting: queue refusals per hop and summed.
	drops     []int64
	dropTotal int64

	// Ingress dispatch: entry[i] is the injector chain fronting hop i (nil
	// when the hop has none), ingress[i] the index-dispatch adapter behind
	// it. Both persist across Configure.
	entry   []Receiver
	ingress []hopIngress

	// Bound per-hop callbacks, created once per hop id and reused across
	// Configure, so transmission and propagation completion schedule no
	// closures at run time.
	txDone []func()
	pfire  []func()

	// Per-flow route spans over the arena: first and last hop by FlowID.
	first []int32
	exit  []int32
}

// hopIngress adapts hop index i to the Receiver interface for NIC and
// injector attachment.
type hopIngress struct {
	a *HopArena
	i int
}

func (h *hopIngress) Receive(seg *packet.Segment) { h.a.Receive(h.i, seg) }

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
		for _, seg := range a.qseg[i][a.qhead[i]:] {
			seg.Release()
		}
		clear(a.qseg[i])
		a.qseg[i], a.qhead[i] = a.qseg[i][:0], 0
		a.cur[i].Release()
		a.cur[i] = nil
		for _, d := range a.pq[i][a.phead[i]:] {
			d.seg.Release()
		}
		clear(a.pq[i])
		a.pq[i], a.phead[i] = a.pq[i][:0], 0
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
	a.qcap = grow(a.qcap, n)
	a.qbytes = grow(a.qbytes, n)
	a.qstats = grow(a.qstats, n)
	a.isRED = grow(a.isRED, n)
	a.red = grow(a.red, n)
	a.delay = grow(a.delay, n)
	a.parmed = grow(a.parmed, n)
	a.drops = grow(a.drops, n)
	a.entry = grow(a.entry, n)
	a.first = a.first[:0]
	a.exit = a.exit[:0]

	// Queues and delay lines keep their (flushed) backing arrays, so a
	// reset scenario re-runs on warm capacity.
	for len(a.qseg) < n {
		a.qseg = append(a.qseg, nil)
		a.pq = append(a.pq, nil)
	}
	a.qhead = grow(a.qhead, n)
	a.phead = grow(a.phead, n)

	// Bound callbacks persist; only new hop ids allocate.
	for len(a.txDone) < n {
		i := len(a.txDone)
		a.txDone = append(a.txDone, func() { a.transmitDone(i) })
		a.pfire = append(a.pfire, func() { a.propFire(i) })
		a.ingress = append(a.ingress, hopIngress{})
	}
	for i := range a.ingress {
		a.ingress[i] = hopIngress{a: a, i: i}
	}

	for i, sp := range specs {
		if sp.Rate <= 0 {
			panic("netem: HopArena hop with non-positive rate")
		}
		a.rate[i] = unit.NewSerializer(sp.Rate)
		a.delay[i] = sp.Delay
		a.qcap[i] = sp.Queue
		a.watchFrac[i] = sp.Watch
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
			a.qcap[i] = cfg.Capacity
		}
	}
	a.dropTotal = 0
}

// NumHops returns the configured hop count.
func (a *HopArena) NumHops() int { return a.n }

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

// SetSpan records a flow's route as a [first, last] hop range over the
// arena. Egress dispatch exits the flow at last; Span reads both ends back.
func (a *HopArena) SetSpan(flow packet.FlowID, first, last int) {
	for int(flow) >= len(a.exit) {
		a.exit = append(a.exit, 0)
		a.first = append(a.first, 0)
	}
	a.exit[flow] = int32(last)
	a.first[flow] = int32(first)
}

// Span returns the route span recorded for the flow.
func (a *HopArena) Span(flow packet.FlowID) (first, last int) {
	return int(a.first[flow]), int(a.exit[flow])
}

func (a *HopArena) qlen(i int) int { return len(a.qseg[i]) - a.qhead[i] }

func (a *HopArena) accOcc(i int, now sim.Time) {
	if now > a.occLast[i] {
		a.occWeight[i] += int64(a.qlen(i)) * int64(now-a.occLast[i])
		a.occLast[i] = now
	}
}

// enqueue applies hop i's admission test (tail drop, or RED in front of it)
// and appends the segment, returning false on refusal. Counter updates match
// DropTail.Enqueue; a RED refusal, early or at capacity, also restarts the
// inter-drop count.
func (a *HopArena) enqueue(i int, seg *packet.Segment) bool {
	st := &a.qstats[i]
	if a.isRED[i] {
		r := &a.red[i]
		r.avg = (1-r.cfg.Weight)*r.avg + r.cfg.Weight*float64(a.qlen(i))
		if a.redDrop(r) || a.qlen(i) >= a.qcap[i] {
			st.Dropped++
			r.count = 0
			return false
		}
		a.qseg[i] = append(a.qseg[i], seg)
		a.qbytes[i] += seg.Size()
		r.count++
		st.Enqueued++
		if n := a.qlen(i); n > st.MaxLen {
			st.MaxLen = n
		}
		return true
	}
	if a.qcap[i] > 0 && a.qlen(i) >= a.qcap[i] {
		st.Dropped++
		return false
	}
	a.qseg[i] = append(a.qseg[i], seg)
	a.qbytes[i] += seg.Size()
	st.Enqueued++
	if n := a.qlen(i); n > st.MaxLen {
		st.MaxLen = n
	}
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

// dequeue removes hop i's oldest buffered segment, compacting the dead
// prefix as DropTail does.
func (a *HopArena) dequeue(i int) *packet.Segment {
	q := a.qseg[i]
	head := a.qhead[i]
	if head >= len(q) {
		return nil
	}
	seg := q[head]
	q[head] = nil
	head++
	a.qbytes[i] -= seg.Size()
	a.qstats[i].Dequeued++
	if head > 64 && head*2 >= len(q) {
		n := copy(q, q[head:])
		for j := n; j < len(q); j++ {
			q[j] = nil
		}
		q = q[:n]
		head = 0
	}
	a.qseg[i], a.qhead[i] = q, head
	return seg
}

// Receive admits the segment at hop i: buffer it (dropping on refusal, with
// the same flight-record/counter/release order as Link.Receive) and start
// the serializer if idle.
func (a *HopArena) Receive(i int, seg *packet.Segment) {
	seg.Enqueued = a.eng.Now()
	a.accOcc(i, a.eng.Now())
	if !a.enqueue(i, seg) {
		a.fr.Record(a.eng.Now(), telemetry.KindHopDrop, int32(seg.Flow), int32(i), seg.Seq, int64(a.qlen(i)))
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
	seg := a.dequeue(i)
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
	a.propReceive(i, seg)
	a.maybeTransmit(i)
}

// propReceive admits the segment to hop i's propagation line (see
// DelayLine.Receive for the seq-reservation ordering contract).
func (a *HopArena) propReceive(i int, seg *packet.Segment) {
	a.pq[i] = append(a.pq[i], delayed{
		at:  a.eng.Now().Add(a.delay[i]),
		seq: a.eng.ReserveSeq(),
		seg: seg,
	})
	if !a.parmed[i] {
		a.propArm(i)
	}
}

func (a *HopArena) propArm(i int) {
	h := &a.pq[i][a.phead[i]]
	a.eng.ScheduleReserved(h.at, h.seq, a.pfire[i])
	a.parmed[i] = true
}

// propFire delivers hop i's head in-flight segment, re-arming before the
// delivery cascade exactly as DelayLine.fire does.
func (a *HopArena) propFire(i int) {
	q := a.pq[i]
	head := a.phead[i]
	seg := q[head].seg
	q[head].seg = nil
	head++
	if head > 64 && head*2 >= len(q) {
		n := copy(q, q[head:])
		for j := n; j < len(q); j++ {
			q[j] = delayed{}
		}
		q = q[:n]
		head = 0
	}
	a.pq[i], a.phead[i] = q, head
	a.parmed[i] = false
	if head < len(q) {
		a.propArm(i)
	}
	a.egress(i, seg)
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
func (a *HopArena) QueueLen(i int) int { return a.qlen(i) }

// QueueStats returns a copy of hop i's queue counters.
func (a *HopArena) QueueStats(i int) QueueStats { return a.qstats[i] }

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
