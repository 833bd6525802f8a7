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
//
// Loss, Reorder and Duplicate, when positive, front the hop's ingress with
// the fault injectors of those probabilities, in that order (see Loss,
// Reorderer, Duplicator), each drawing from its own generator seeded by its
// seed; ReorderDelay is the extra hold of a reordered segment.
type HopSpec struct {
	Rate    unit.Bandwidth
	Delay   time.Duration
	Queue   int
	RED     *REDConfig
	REDSeed uint64
	Watch   float64

	Loss, Reorder, Duplicate             float64
	ReorderDelay                         time.Duration
	LossSeed, ReorderSeed, DuplicateSeed uint64
}

// redState is one hop's RED admission machinery. The RNG is embedded by
// value (sim.RNG is 32 bytes), so a RED hop's drop decisions read no pointer
// beyond the hop's own row.
type redState struct {
	cfg   REDConfig
	rng   sim.RNG
	avg   float64
	count int
}

// injectors is a hop's ingress fault chain, loss → reorder → duplicate, each
// drawing from its own generator.
type injectors struct {
	loss    Loss
	reorder Reorderer
	dup     Duplicator
	rng     [3]sim.RNG
}

// hop is one row of the arena, everything one forward hop is: a Link on the
// row's own DropTail, recording refusals under the hop's index (link.Hop),
// RED admission when isRED, and the utilization latch (see HopSpec.Watch).
// entry heads the injector chain fronting the hop in this configuration, if
// any; the chain lives behind inj, allocated when a configuration first
// needs it and kept across Configure, so a row without one stays small.
type hop struct {
	link       Link
	queue      DropTail
	a          *HopArena
	red        redState
	frac       float64
	at         sim.Time
	hit, isRED bool
	entry      Receiver
	inj        *injectors
}

// hopLatch is a row as its port's hook: after every completed transmission
// it latches the first instant the hop's busy fraction reaches the watch.
type hopLatch hop

func (l *hopLatch) Transmitted(p *Port) {
	h := (*hop)(l)
	now := p.eng.Now()
	if !h.hit && float64(p.stats.Busy) >= h.frac*float64(now.Duration()) {
		h.hit, h.at = true, now
	}
}

// hopIngress is a row as the Receiver that admits to it, past any injector:
// what NICs attach to when the hop has no chain, and the chain's tail.
type hopIngress hop

func (h *hopIngress) Receive(seg *packet.Segment) { (*hop)(h).receive(seg) }

// hopEgress is a row as the Receiver its delay line delivers to.
type hopEgress hop

// Receive dispatches the hop's propagation output by index: flows whose
// span ends here (and anything leaving the last hop) exit to the arena's out
// Receiver, everything else enters the next hop — through its injector chain
// when it has one, otherwise by a direct call.
func (e *hopEgress) Receive(seg *packet.Segment) {
	h := (*hop)(e)
	a, i := h.a, int(h.link.Hop)
	if f := int(seg.Flow); i+1 >= len(a.hops) || f < len(a.exit) && int(a.exit[f]) == i {
		a.out.Receive(seg)
	} else if next := a.hops[i+1]; next.entry != nil {
		next.entry.Receive(seg)
	} else {
		next.receive(seg)
	}
}

// HopArena is the forward path as one row per hop, indexed by hop id. Per-flow
// routing is a span over the arena: exit[flow] is the last hop a flow
// traverses, and hand-off between hops is index dispatch (hop i's
// propagation output enters hop i+1 by index).
//
// Configure rebuilds the arena in place, reusing every row, so a campaign
// worker's Scenario.Reset re-shapes the path without allocating again.
type HopArena struct {
	eng *sim.Engine
	out Receiver // egress for flows exiting the path (the scenario demux)
	// hops are this configuration's rows; those beyond len wait, flushed,
	// for a longer shape, or are nil where append reserved a slot. Rows are
	// pointers because a pending event holds the address of a row's link.
	hops []*hop
	exit []int32 // the last hop by FlowID
}

// NewHopArena returns an empty arena; Configure shapes it.
func NewHopArena(eng *sim.Engine) *HopArena {
	return &HopArena{eng: eng}
}

// Configure (re)shapes the arena for the given hop chain, delivering exiting
// segments to out and recording queue refusals and injector events in fr.
// Every row is reused; per-hop queues keep their warmed capacity from
// earlier runs, and whatever the previous shape left in them is released.
// Reconfiguring is for an engine that was reset: the arena's pending
// calendar entries must already be gone.
func (a *HopArena) Configure(specs []HopSpec, out Receiver, fr *telemetry.FlightRecorder) {
	if out == nil {
		panic("netem: HopArena.Configure with nil egress")
	}
	for _, h := range a.hops {
		h.link.Flush()
		if h.inj != nil {
			h.inj.reorder.Flush()
		}
	}
	a.out = out
	a.exit = a.exit[:0]
	a.hops = a.hops[:min(len(specs), cap(a.hops))]
	for i := range specs {
		if i == len(a.hops) {
			a.hops = append(a.hops, nil)
		}
		if a.hops[i] == nil {
			a.hops[i] = &hop{a: a}
		}
		a.hops[i].init(i, &specs[i], fr)
	}
}

// init rebuilds the row in place as hop i, shaped by sp.
func (h *hop) init(i int, sp *HopSpec, fr *telemetry.FlightRecorder) {
	eng, limit := h.a.eng, sp.Queue
	if h.isRED = sp.RED != nil; h.isRED {
		if limit = sp.RED.Capacity; limit <= 0 {
			panic("netem: RED requires a positive capacity")
		}
		if sp.RED.MaxThreshold <= sp.RED.MinThreshold {
			panic("netem: RED MaxThreshold must exceed MinThreshold")
		}
		h.red = redState{cfg: *sp.RED}
		h.red.rng.Seed(sp.REDSeed)
	}
	h.queue.Init(limit)
	h.link.Init(eng, sp.Rate, sp.Delay, &h.queue, (*hopEgress)(h))
	h.link.FR, h.link.Hop = fr, int32(i)
	h.frac, h.at, h.hit = sp.Watch, 0, false
	if sp.Watch > 0 {
		h.link.hook = (*hopLatch)(h)
	}
	h.entry = nil
	if sp.Loss > 0 || sp.Reorder > 0 || sp.Duplicate > 0 {
		if h.inj == nil {
			h.inj = new(injectors)
		}
		h.entry = h.inj.init(eng, fr, int32(i), sp, (*hopIngress)(h))
	}
}

// init re-initializes every injector, counters zeroed, and chains the ones
// sp enables in front of next, returning the chain's head.
func (f *injectors) init(eng *sim.Engine, fr *telemetry.FlightRecorder, hop int32, sp *HopSpec, next Receiver) Receiver {
	f.rng[0].Seed(sp.LossSeed)
	f.rng[1].Seed(sp.ReorderSeed)
	f.rng[2].Seed(sp.DuplicateSeed)
	f.dup = Duplicator{P: sp.Duplicate, RNG: &f.rng[2], Next: next, FR: fr, Eng: eng, Hop: hop}
	if sp.Duplicate > 0 {
		next = &f.dup
	}
	f.reorder.Init(eng, sp.Reorder, sp.ReorderDelay, &f.rng[1], next)
	f.reorder.FR, f.reorder.Hop = fr, hop
	if sp.Reorder > 0 {
		next = &f.reorder
	}
	f.loss = Loss{P: sp.Loss, RNG: &f.rng[0], Next: next, FR: fr, Eng: eng, Hop: hop}
	if sp.Loss > 0 {
		next = &f.loss
	}
	return next
}

// Ingress returns the Receiver traffic entering hop i must use: the hop's
// injector chain when it has one, its admission otherwise.
func (a *HopArena) Ingress(i int) Receiver {
	if h := a.hops[i]; h.entry != nil {
		return h.entry
	}
	return (*hopIngress)(a.hops[i])
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

// Receive admits the segment at hop i, past any injector (see hop.receive).
func (a *HopArena) Receive(i int, seg *packet.Segment) { a.hops[i].receive(seg) }

// receive admits the segment and starts the serializer if idle; a refused
// segment is flight-recorded and released as Link.Receive does.
func (h *hop) receive(seg *packet.Segment) {
	if h.enqueue(seg) {
		h.link.start()
	} else {
		h.link.drop(seg)
	}
}

// enqueue applies the hop's admission test and buffers the segment, returning
// false on refusal. The tail drop is the DropTail's own; a RED hop tests its
// early drop and its capacity first, counting a refusal in the queue's
// Dropped and restarting the inter-drop count.
func (h *hop) enqueue(seg *packet.Segment) bool {
	if !h.isRED {
		return h.link.enqueue(seg)
	}
	q, r := &h.queue, &h.red
	r.avg = (1-r.cfg.Weight)*r.avg + r.cfg.Weight*float64(q.Len())
	if r.drop() || q.Len() >= q.Capacity() {
		q.stats.Dropped++
		r.count = 0
		return false
	}
	h.link.enqueue(seg)
	r.count++
	return true
}

// drop evaluates the early-drop probability for the current average (see
// REDConfig), with inter-drop gaps uniformized by the count of arrivals since
// the last drop as in the original paper.
func (r *redState) drop() bool {
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

// Port returns hop i's transmission stage: its queue, serializer and
// counters.
func (a *HopArena) Port(i int) *Port { return &a.hops[i].link.Port }

// Faults returns what hop i's injectors did in this configuration: segments
// the loss injector dropped, the reorderer held back and the duplicator
// copied. A hop without injectors reads zero.
func (a *HopArena) Faults(i int) (lost, reordered, duplicated int64) {
	if h := a.hops[i]; h.entry != nil {
		lost, reordered, duplicated = h.inj.loss.Dropped(), h.inj.reorder.Reordered(), h.inj.dup.Duplicated()
	}
	return lost, reordered, duplicated
}

// UtilizationReachedAt returns the instant hop i's watched utilization
// fraction was first reached, and whether it has been.
func (a *HopArena) UtilizationReachedAt(i int) (sim.Time, bool) {
	h := a.hops[i]
	return h.at, h.hit
}
