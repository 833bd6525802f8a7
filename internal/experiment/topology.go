package experiment

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"time"

	"rsstcp/internal/netem"
	"rsstcp/internal/sim"
	"rsstcp/internal/unit"
)

// This file is the topology layer: the declarative hop-graph description the
// network-assembly stack builds from, and the compiler that turns the classic
// PathConfig dumbbell into a one-hop instance of it. Everything above netem
// (experiment, campaign, the facade, the CLIs) speaks Topology; PathConfig
// survives as a convenient front-end whose compiled output is pinned
// byte-identical to the pre-topology harness (see TestGridGoldenOutput and
// TestPathCompileMatchesExplicitTopology).

// QueueDiscipline selects a hop queue's admission policy.
type QueueDiscipline string

// Queue disciplines available to hops.
const (
	// DiscDropTail is the classic FIFO tail-drop router queue (default).
	DiscDropTail QueueDiscipline = "droptail"
	// DiscRED is Random Early Detection (Floyd & Jacobson 1993), the AQM
	// the related work's stability analyses assume.
	DiscRED QueueDiscipline = "red"
)

// QueueDisciplines lists every selectable discipline.
func QueueDisciplines() []QueueDiscipline {
	return []QueueDiscipline{DiscDropTail, DiscRED}
}

// knownDiscipline reports whether d is selectable ("" means the drop-tail
// default). It reads the exported list so the two can never drift.
func knownDiscipline(d QueueDiscipline) bool {
	return d == "" || slices.Contains(QueueDisciplines(), d)
}

// Hop is one store-and-forward stage of the forward path: a queue feeding a
// serializer of fixed rate, followed by a propagation delay, with optional
// fault injectors on its ingress (loss, then reordering, then duplication).
type Hop struct {
	// Rate is the hop's serialization rate.
	Rate unit.Bandwidth
	// Delay is the hop's one-way propagation delay.
	Delay time.Duration
	// Queue is the hop buffer in packets.
	Queue int
	// Discipline selects the queue's admission policy ("" = drop-tail).
	Discipline QueueDiscipline
	// RED overrides the RED parameters when Discipline is DiscRED; nil
	// derives the classic parameters from Queue (netem.DefaultREDConfig).
	RED *netem.REDConfig
	// Loss is an independent drop probability applied at the hop ingress.
	Loss float64
	// ReorderP holds back each arriving segment with this probability for
	// an extra ReorderDelay, letting later traffic overtake it.
	ReorderP float64
	// ReorderDelay is the extra hold time for reordered segments
	// (default 1/4 of the hop delay when ReorderP > 0 and this is zero).
	ReorderDelay time.Duration
	// DuplicateP emits an extra copy of each arriving segment with this
	// probability.
	DuplicateP float64
}

// Reverse describes the ACK channel shared by every flow.
type Reverse struct {
	// Rate, when non-zero, makes the reverse direction a real
	// store-and-forward link: ACKs serialize at this rate behind a finite
	// queue, so a saturated reverse channel produces ACK compression and
	// ACK loss. Zero keeps the paper's ideal pure-delay reverse wire.
	Rate unit.Bandwidth
	// Delay is the reverse one-way propagation delay; zero means symmetric
	// with the forward direction (the sum of the hop delays).
	Delay time.Duration
	// Queue is the reverse buffer in packets (default 100 when Rate > 0).
	Queue int
}

// Topology is the declarative network between the hosts: an ordered chain of
// forward hops plus one reverse channel. Flows enter at their route's first
// hop and exit after its last, so parking-lot multi-bottleneck and hop-local
// cross-traffic scenarios compose from the same pieces as the paper's
// dumbbell.
type Topology struct {
	Hops    []Hop
	Reverse Reverse
}

// MaxHops bounds a path's hop list, explicit or split from the dumbbell
// (PathConfig.Hops): a hop count from outside sizes the compiled topology
// and the arena's rows.
const MaxHops = 1 << 10

// cloneInto returns a copy with zero fields resolved, its hop list built in
// buf's backing array (nil, or a scenario's scratch); RED parameters are
// still shared. The receiver is never mutated: topologies may be shared
// across campaign cells.
func (t Topology) cloneInto(buf []Hop) Topology {
	t.Hops = append(buf[:0], t.Hops...)
	t.resolve()
	return t
}

// resolve fills zero fields in place; the hop list must be private to t.
func (t *Topology) resolve() {
	for i := range t.Hops {
		h := &t.Hops[i]
		if h.Discipline == "" {
			h.Discipline = DiscDropTail
		}
		if h.ReorderP > 0 && h.ReorderDelay == 0 {
			h.ReorderDelay = h.Delay / 4
		}
	}
	if t.Reverse.Rate > 0 && t.Reverse.Queue == 0 {
		t.Reverse.Queue = 100
	}
}

// Clone returns a deep copy; campaign axis mutators edit clones so sibling
// cells never alias one another's hop lists.
func (t Topology) Clone() Topology {
	t = t.cloneInto(nil)
	for i, h := range t.Hops {
		if h.RED != nil {
			red := *h.RED
			t.Hops[i].RED = &red
		}
	}
	return t
}

// Validate rejects hop graphs the assembly layer cannot build.
func (t Topology) Validate() error {
	if len(t.Hops) == 0 {
		return fmt.Errorf("experiment: topology has no hops")
	}
	if n := len(t.Hops); n > MaxHops {
		return fmt.Errorf("experiment: %d hops exceeds the limit of %d per path", n, MaxHops)
	}
	var fwd time.Duration
	for i := range t.Hops {
		if err := t.Hops[i].Validate(); err != nil {
			return fmt.Errorf("experiment: hop %d: %w", i, err)
		}
		if fwd += t.Hops[i].Delay; fwd < 0 {
			return fmt.Errorf("experiment: hop %d: Delay summed through it overflows a duration", i)
		}
	}
	if err := t.Reverse.Validate(); err != nil {
		return fmt.Errorf("experiment: %w", err)
	}
	if rev := cmp.Or(t.Reverse.Delay, fwd); fwd+rev < 0 {
		return fmt.Errorf("experiment: Reverse.Delay: round trip %v + %v overflows a duration", fwd, rev)
	}
	return nil
}

// Validate is Topology.Validate's per-hop half, which a parser of outside
// input applies to each hop it reads.
func (h *Hop) Validate() error {
	if h.Rate <= 0 {
		return fmt.Errorf("non-positive rate %v", h.Rate)
	}
	if h.Queue <= 0 {
		return fmt.Errorf("non-positive queue %d", h.Queue)
	}
	if !knownDiscipline(h.Discipline) {
		return fmt.Errorf("unknown queue discipline %q", h.Discipline)
	}
	if r := h.RED; h.Discipline == DiscRED && r != nil {
		if r.Capacity <= 0 {
			return fmt.Errorf("non-positive RED capacity %d", r.Capacity)
		}
		if !(r.MaxThreshold > r.MinThreshold) {
			return fmt.Errorf("RED MaxThreshold %v does not exceed MinThreshold %v", r.MaxThreshold, r.MinThreshold)
		}
		if err := cmp.Or(fraction("RED MaxP", r.MaxP), fraction("RED Weight", r.Weight)); err != nil {
			return err
		}
	}
	return cmp.Or(neg("delay", h.Delay), neg("reorder delay", h.ReorderDelay), fraction("loss", h.Loss),
		fraction("reorder probability", h.ReorderP), fraction("duplicate probability", h.DuplicateP))
}

// Validate is Topology.Validate's reverse-channel half.
func (r Reverse) Validate() error {
	return cmp.Or(neg("reverse rate", r.Rate), neg("reverse delay", r.Delay), neg("reverse queue", r.Queue))
}

// WithReverse configures a real (rate-limited, queued) reverse channel and
// returns the topology for chaining. delay zero means symmetric with the
// forward path; queue zero means the 100-packet default.
func (t *Topology) WithReverse(rate unit.Bandwidth, delay time.Duration, queue int) *Topology {
	t.Reverse = Reverse{Rate: rate, Delay: delay, Queue: queue}
	return t
}

// ForwardDelay returns the sum of the hop propagation delays.
func (t Topology) ForwardDelay() time.Duration {
	var d time.Duration
	for _, h := range t.Hops {
		d += h.Delay
	}
	return d
}

// Route selects the contiguous hop span a flow traverses. The zero value is
// the whole path. Cross traffic pins a sub-span — the classic parking-lot
// cross flow is Route{FirstHop: 1, Hops: 1}.
type Route struct {
	// FirstHop is the index of the hop where the flow enters.
	FirstHop int
	// Hops is the number of hops traversed; zero means through the end of
	// the path.
	Hops int
}

// span resolves the route against an n-hop path, returning the inclusive
// [first, last] hop indexes and whether they lie on the path.
func (r Route) span(n int) (first, last int, ok bool) {
	first = r.FirstHop
	last = n - 1
	if r.Hops > 0 {
		last = first + r.Hops - 1
	}
	return first, last, first >= 0 && first < n && last < n && last >= first
}

// Topology compiles the dumbbell descriptor into an explicit topology. With
// the extension knobs (Hops, AQM, Reverse*) at their zero values the result
// is a single drop-tail hop with an ideal reverse wire — exactly the
// pre-topology harness, bit for bit (the PathConfig compiler invariant;
// grid_golden.json is pinned on it). Hops > 1 splits the path into that many
// identical stages: same rate and buffer per hop, the one-way delay divided
// evenly (remainder on the last hop so the total is exact), loss injection on
// the first hop only, so end-to-end loss probability matches the dumbbell.
func (p PathConfig) Topology() Topology { return p.compileInto(nil) }

// compileInto is Topology with the hop list built in buf's backing array.
func (p *PathConfig) compileInto(buf []Hop) Topology {
	p.fillDefaults()
	n := max(p.Hops, 1)
	owd := p.RTT / 2
	per := owd / time.Duration(n)
	t := Topology{Hops: extend(buf[:0], n)}
	for i := range t.Hops {
		d := per
		if i == n-1 {
			d = owd - per*time.Duration(n-1)
		}
		t.Hops[i] = Hop{
			Rate:       p.Bottleneck,
			Delay:      d,
			Queue:      p.RouterQueue,
			Discipline: p.AQM,
		}
	}
	t.Hops[0].Loss = p.Loss
	t.Reverse = Reverse{Rate: p.ReverseRate, Delay: p.ReverseDelay, Queue: p.ReverseQueue}
	t.resolve()
	return t
}

// Injector RNG salts. Every per-hop random element gets its own generator
// with a seed derived from (run seed, hop index, salt), so adding an
// injector on one hop never perturbs another hop's stream and two same-seed
// runs draw identical patterns.
const (
	saltLoss = iota
	saltReorder
	saltDup
	saltRED
)

// injectorSeed derives the RNG seed for hop i's injector of the given kind.
// The first hop's loss injector uses the run seed unmixed — that is the
// PathConfig compiler invariant: a compiled one-hop path draws the exact
// loss stream the pre-topology harness drew from sim.NewRNG(cfg.Seed).
func injectorSeed(seed uint64, hop int, salt uint64) uint64 {
	if hop == 0 && salt == saltLoss {
		return seed
	}
	return sim.Mix64(seed ^ uint64(hop+1)*0x9e3779b97f4a7c15 ^ (salt+1)*0xbf58476d1ce4e5b9)
}

// HopStats is one hop's aggregate counters after a run. Drops are queue
// refusals (tail drop or AQM early discard); LossDrops, Reordered and
// Duplicated count the hop's fault injectors. AvgQueue and Utilization come
// from running integrals, so they exist traced or traceless.
type HopStats struct {
	Drops       int64
	LossDrops   int64
	Reordered   int64
	Duplicated  int64
	MaxQueue    int
	AvgQueue    float64
	Utilization float64
}

// --- stock presets ---

// TopologyPresets lists the named stock topologies the CLIs and the "topo"
// campaign axis accept.
func TopologyPresets() []string {
	return []string{"dumbbell", "parking-lot", "reverse-congested"}
}

// ApplyPreset imprints a named stock topology on the configuration:
//
//   - "dumbbell": the paper path compiled to an explicit one-hop topology.
//   - "parking-lot": three 100 Mbps / 10 ms / 250-packet hops with a
//     backlogged standard cross flow pinned to the middle hop (starting at
//     1 s), the classic multi-bottleneck shape.
//   - "reverse-congested": the paper path with an asymmetric reverse
//     channel — 5 Mbps, 50 packets — so ACKs queue behind a real
//     serializer.
//
// Cross flows added by a preset are marked FlowSpec.Cross: per-flow campaign
// axes (alg, setpoint, ...) skip them and flow-count axes preserve them.
func ApplyPreset(cfg *Config, name string) error {
	switch name {
	case "dumbbell":
		t := PaperPath().Topology()
		cfg.Topology = &t
	case "parking-lot":
		hop := Hop{Rate: 100 * unit.Mbps, Delay: 10 * time.Millisecond, Queue: 250}
		t := Topology{Hops: []Hop{hop, hop, hop}}.Clone()
		cfg.Topology = &t
		cfg.Flows = append(cfg.Flows, FlowSpec{
			Alg:     AlgStandard,
			Cross:   true,
			Route:   Route{FirstHop: 1, Hops: 1},
			StartAt: time.Second,
		})
	case "reverse-congested":
		p := PaperPath()
		p.ReverseRate = 5 * unit.Mbps
		p.ReverseQueue = 50
		t := p.Topology()
		cfg.Topology = &t
	default:
		return fmt.Errorf("experiment: unknown topology preset %q (known: %s)",
			name, strings.Join(TopologyPresets(), ", "))
	}
	return nil
}
