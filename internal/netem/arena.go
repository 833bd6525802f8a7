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

// hopWatch is one hop's utilization latch (see HopSpec.Watch), run as its
// port's hook after every completed transmission.
type hopWatch struct {
	frac float64
	at   sim.Time
	hit  bool
}

func (w *hopWatch) Transmitted(p *Port) {
	now := p.eng.Now()
	if !w.hit && float64(p.stats.Busy) >= w.frac*float64(now.Duration()) {
		w.hit, w.at = true, now
	}
}

// HopArena is the forward path as parallel arrays indexed by hop id: per hop
// a Port (a DropTail buffer draining through the serializer, with RED
// admission in front of it on RED hops) and a DelayLine for propagation —
// a netem.Link's two stages, addressed by index.
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

	// Ports and delay lines are pointers because a pending completion or
	// delivery holds the stage's address. They persist across Configure,
	// so only new hop ids allocate and a reset scenario re-runs on warm
	// (flushed) queues. Port i delivers into prop[i], which delivers to
	// propOut[i].
	port    []*Port
	prop    []*DelayLine
	propOut []hopEgress

	// Utilization watch latches, the hooks of the watched hops' ports.
	watch []hopWatch

	// RED admission in front of the port's queue, gated by isRED.
	isRED []bool
	red   []redState

	// Ingress dispatch: entry[i] is the injector chain fronting hop i (nil
	// when the hop has none), ingress[i] the index-dispatch adapter behind
	// it. Both persist across Configure.
	entry   []Receiver
	ingress []hopIngress

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
	for i := 0; i < a.n; i++ {
		a.port[i].Flush()
		a.prop[i].Flush()
	}
	n := len(specs)
	a.out, a.fr, a.n = out, fr, n

	a.watch = grow(a.watch, n)
	a.isRED = grow(a.isRED, n)
	a.red = grow(a.red, n)
	a.entry = grow(a.entry, n)
	a.exit = a.exit[:0]

	for len(a.port) < n {
		a.port = append(a.port, &Port{q: new(DropTail)})
		a.prop = append(a.prop, new(DelayLine))
		a.ingress = append(a.ingress, hopIngress{})
		a.propOut = append(a.propOut, hopEgress{})
	}
	for i := range a.ingress {
		a.ingress[i] = hopIngress{a: a, i: i}
		a.propOut[i] = hopEgress{a: a, i: i}
	}

	for i, sp := range specs {
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
		a.prop[i].Init(a.eng, sp.Delay, &a.propOut[i])
		p := a.port[i]
		p.q.Init(limit)
		var hook PortHook
		if sp.Watch > 0 {
			a.watch[i].frac = sp.Watch
			hook = &a.watch[i]
		}
		p.Init(a.eng, sp.Rate, p.q, a.prop[i], hook)
	}
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

// enqueue applies hop i's admission test and buffers the segment, returning
// false on refusal. The tail drop is the DropTail's own; a RED hop tests its
// early drop and its capacity first, counting a refusal in the queue's
// Dropped and restarting the inter-drop count.
func (a *HopArena) enqueue(i int, seg *packet.Segment) bool {
	p := a.port[i]
	if !a.isRED[i] {
		return p.enqueue(seg)
	}
	q, r := p.q, &a.red[i]
	r.avg = (1-r.cfg.Weight)*r.avg + r.cfg.Weight*float64(q.Len())
	if a.redDrop(r) || q.Len() >= q.Capacity() {
		q.stats.Dropped++
		r.count = 0
		return false
	}
	p.enqueue(seg)
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
// the same flight-record/release order as Link.Receive) and start the
// serializer if idle.
func (a *HopArena) Receive(i int, seg *packet.Segment) {
	if !a.enqueue(i, seg) {
		a.fr.Record(a.eng.Now(), telemetry.KindHopDrop, int32(seg.Flow), int32(i), seg.Seq, int64(a.port[i].Len()))
		seg.Release()
		return
	}
	a.port[i].start()
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

// Port returns hop i's transmission stage: its queue, serializer and
// counters.
func (a *HopArena) Port(i int) *Port { return a.port[i] }

// UtilizationReachedAt returns the instant hop i's watched utilization
// fraction was first reached, and whether it has been.
func (a *HopArena) UtilizationReachedAt(i int) (sim.Time, bool) {
	return a.watch[i].at, a.watch[i].hit
}
