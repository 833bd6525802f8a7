// Package experiment assembles complete simulated testbeds — hosts, paths,
// flows, instrumentation — and regenerates every figure and table of the
// paper's evaluation plus the ablations DESIGN.md calls out.
package experiment

import (
	"fmt"
	"slices"
	"time"

	"rsstcp/internal/cc"
	"rsstcp/internal/core"
	"rsstcp/internal/host"
	"rsstcp/internal/netem"
	"rsstcp/internal/packet"
	"rsstcp/internal/pid"
	"rsstcp/internal/sim"
	"rsstcp/internal/tcp"
	"rsstcp/internal/telemetry"
	"rsstcp/internal/trace"
	"rsstcp/internal/unit"
	"rsstcp/internal/web100"
)

// Algorithm selects the sender's congestion behaviour.
type Algorithm string

// Algorithms available to experiments.
const (
	// AlgStandard is 2.4-era Linux TCP: standard slow-start, send-stalls
	// treated as congestion. The paper's baseline.
	AlgStandard Algorithm = "standard"
	// AlgRestricted is the paper's scheme: PID-paced slow-start.
	AlgRestricted Algorithm = "restricted"
	// AlgLimited is RFC 3742 Limited Slow-Start.
	AlgLimited Algorithm = "limited"
	// AlgStandardABC is standard slow-start with RFC 3465 byte counting.
	AlgStandardABC Algorithm = "standard-abc"
	// AlgStallWait is an idealized sender that waits out stalls without
	// collapsing the window (upper-bound ablation).
	AlgStallWait Algorithm = "stall-wait"
	// AlgHyStart is slow-start with the Hybrid Slow Start delay detector
	// (the mainstream post-paper answer to slow-start overshoot).
	AlgHyStart Algorithm = "hystart"
)

// Algorithms lists every selectable algorithm.
func Algorithms() []Algorithm {
	return []Algorithm{AlgStandard, AlgRestricted, AlgLimited, AlgStandardABC, AlgHyStart, AlgStallWait}
}

// PathConfig describes the network between the hosts.
type PathConfig struct {
	// Bottleneck is the shared link rate.
	Bottleneck unit.Bandwidth
	// RTT is the round-trip propagation delay.
	RTT time.Duration
	// RouterQueue is the bottleneck buffer in packets.
	RouterQueue int
	// NICRate is each sender's NIC line rate; zero means equal to the
	// bottleneck (the paper's configuration, where the IFQ is the
	// binding queue).
	NICRate unit.Bandwidth
	// TxQueueLen is the sender IFQ capacity in packets (txqueuelen).
	TxQueueLen int
	// Loss is an independent drop probability applied to data segments
	// entering the bottleneck (0 = lossless, the paper's testbed). When
	// non-zero the drops are drawn from the run's seed, so replicates
	// with different seeds see different loss patterns.
	Loss float64

	// The fields below extend the dumbbell beyond the paper's testbed; all
	// default to zero (= the paper's shape) and compile away through
	// PathConfig.Topology. They are omitempty so legacy campaign exports
	// stay byte-identical.

	// Hops splits the forward path into this many identical store-and-
	// forward hops (0 or 1 = the classic single bottleneck). Delay divides
	// evenly across hops; rate, buffer and discipline repeat per hop.
	Hops int `json:",omitempty"`
	// AQM selects the queue discipline at every hop ("" = drop-tail).
	AQM QueueDiscipline `json:",omitempty"`
	// ReverseRate, when non-zero, replaces the ideal pure-delay reverse
	// wire with a real link: ACKs serialize at this rate behind a finite
	// queue, so an asymmetric reverse channel can stall the ACK clock.
	ReverseRate unit.Bandwidth `json:",omitempty"`
	// ReverseDelay is the reverse one-way delay (0 = symmetric).
	ReverseDelay time.Duration `json:",omitempty"`
	// ReverseQueue is the reverse buffer in packets (default 100 when
	// ReverseRate > 0).
	ReverseQueue int `json:",omitempty"`
}

// PaperPath returns the testbed of Section 4: a 100 Mbps ANL↔LBNL path with
// 60 ms RTT and the Linux default txqueuelen of 100.
func PaperPath() PathConfig {
	return PathConfig{
		Bottleneck:  100 * unit.Mbps,
		RTT:         60 * time.Millisecond,
		RouterQueue: 250,
		TxQueueLen:  100,
	}
}

func (p *PathConfig) fillDefaults() {
	if p.Bottleneck <= 0 {
		p.Bottleneck = 100 * unit.Mbps
	}
	if p.RTT <= 0 {
		p.RTT = 60 * time.Millisecond
	}
	if p.RouterQueue <= 0 {
		p.RouterQueue = 250
	}
	if p.NICRate <= 0 {
		p.NICRate = p.Bottleneck
	}
	if p.TxQueueLen <= 0 {
		p.TxQueueLen = 100
	}
}

// FlowSpec describes one sender/receiver pair.
type FlowSpec struct {
	// Alg selects the congestion behaviour.
	Alg Algorithm
	// StartAt delays the flow's first byte.
	StartAt time.Duration
	// Bytes fixes the transfer size; zero keeps the flow backlogged for
	// the whole run.
	Bytes int64
	// Gains overrides the PID gains for AlgRestricted (zero = defaults).
	Gains pid.Gains
	// SetpointFraction overrides the IFQ set point (zero = 0.9).
	SetpointFraction float64
	// AllowShrink enables the RSS shrink ablation.
	AllowShrink bool
	// StallWait forces the stall-wait policy regardless of Alg; the
	// Ziegler-Nichols rig uses it so stalls cannot collapse the loop
	// under test.
	StallWait bool
	// Tick overrides the RSS control period.
	Tick time.Duration
	// SACK enables selective acknowledgments for this flow.
	SACK bool
	// MSS overrides the segment size (zero = 1448).
	MSS int
	// Host groups flows onto a shared sending host: flows with the same
	// non-zero Host value share one NIC and IFQ (parallel streams, as in
	// GridFTP). Zero gives the flow a host of its own.
	Host int
	// Route pins the flow to a contiguous hop span of the topology; the
	// zero value traverses the whole path. Hop-local cross traffic in a
	// parking-lot topology sets a sub-span (e.g. Route{FirstHop:1, Hops:1}).
	Route Route
	// Cross marks the flow as cross traffic: campaign per-flow axes (alg,
	// setpoint, mss, ...) leave it untouched and flow-count axes preserve
	// it, so sweeps shape only the measured flows while the topology's
	// background load stays fixed.
	Cross bool
}

// MaxFlows bounds Config.Flows. A flow count arrives from outside (a CLI
// flag, a sweep axis) and sizes per-flow allocations before anything runs;
// the bound — well above the 50k-flow density runs — turns an absurd one
// into an error instead of a fatal out-of-memory.
const MaxFlows = 1 << 20

// Config describes a full experiment run.
type Config struct {
	Path PathConfig
	// Topology, when non-nil, describes the network explicitly as a hop
	// chain and overrides Path entirely. When nil, Path compiles into a
	// one-hop topology (see PathConfig.Topology) — every pre-topology
	// configuration keeps working unchanged.
	Topology *Topology
	// Flows to run; Flows[0] is the measured flow. Empty means one
	// standard flow.
	Flows []FlowSpec
	// Churn, when non-nil, adds dynamic flows on top of Flows: an arrival
	// process births flows from a template spec, each runs to
	// byte-completion (size drawn from a distribution) and detaches,
	// leaving a FlowRecord in Result.Flows. With Churn set, Flows may be
	// empty or all-cross: no default measured flow is injected.
	Churn *ChurnSpec `json:",omitempty"`
	// Duration ends the run (default 25 s, the span of Figure 1).
	Duration time.Duration
	// Sample is the gauge sampling period (default 100 ms).
	Sample time.Duration
	// Seed feeds all randomness (default 1).
	Seed uint64
	// EventLog sets the flight-recorder ring capacity in events; zero means
	// telemetry.DefaultRingSize. The recorder is always on — unlike tracing
	// it is allocation-free — so this only sizes how much congestion history
	// the ring retains.
	EventLog int `json:",omitempty"`
	// Traceless disables time-series recording entirely: no sampled gauge
	// series, no per-event counter points, no sampling ticker on the
	// calendar. Every scalar in Result (throughput, stalls, utilization,
	// drop counters, TimeToUtil90) is computed from running counters and
	// is identical with or without tracing; only Rec-based series readers
	// (figure generation) need tracing. Campaign workers run traceless so
	// million-run sweeps spend nothing on series nobody reads.
	Traceless bool
	// TimerWheel hosts every endpoint timer (each sender's RTO, each
	// receiver's delayed ACK) on a timer wheel instead of the calendar
	// heap. The observable schedule is byte-identical either way (see
	// sim.Wheel); the wheel keeps calendar depth flat when tens of
	// thousands of flows re-arm timers on every ACK.
	TimerWheel bool `json:",omitempty"`
	// Scheduler selects the calendar backend: "ladder" (the default — a
	// ladder queue with O(1) amortized operations, see sim ladder.go),
	// "heap" (the binary-heap calendar), or "wheel" (the heap calendar
	// with TimerWheel forced on, the PR 8 configuration). Every backend
	// delivers the identical (at, seq) event order, so results are
	// byte-identical across all three; the field exists for differential
	// testing and performance comparison. An empty value resolves to
	// "wheel" when TimerWheel is set (preserving the legacy toggle's
	// meaning) and "ladder" otherwise.
	Scheduler string `json:",omitempty"`
	// RetainFlows caps how many completed-flow records Result.Flows keeps:
	// 0 retains every record (the legacy default), -1 retains none, a
	// positive cap keeps the first N in completion order. The streaming
	// Result.FCT summary covers every completion regardless of the cap, so
	// many-flows churn runs can bound memory without losing their
	// completion-time figures.
	RetainFlows int `json:",omitempty"`
}

// fillDefaults resolves zero fields in place. Slices and pointers the
// caller's Config shares are replaced, never written through.
func (c *Config) fillDefaults() {
	c.Path.fillDefaults()
	if c.Churn != nil {
		churn := c.Churn.withDefaults()
		c.Churn = &churn
	}
	if len(c.Flows) == 0 {
		// A churn-only run measures its dynamic flows; only a fully static
		// empty config gets the default measured flow.
		if c.Churn == nil {
			c.Flows = []FlowSpec{{Alg: AlgStandard}}
		}
	} else {
		// Cross traffic alone (e.g. a topology preset applied before any
		// flow axis) still needs a measured flow in front — unless churn
		// provides the measured (dynamic) flows.
		primary := false
		for _, f := range c.Flows {
			if !f.Cross {
				primary = true
				break
			}
		}
		if !primary && c.Churn == nil {
			c.Flows = append([]FlowSpec{{Alg: AlgStandard}}, c.Flows...)
		}
	}
	if c.Duration <= 0 {
		c.Duration = 25 * time.Second
	}
	if c.Sample <= 0 {
		c.Sample = 100 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Scheduler == "wheel" {
		c.TimerWheel = true
	}
}

// SchedulerKind resolves the Scheduler field to the backend that will run:
// "heap", "wheel", or "ladder". An empty field resolves to "wheel" when the
// legacy TimerWheel toggle is set and to "ladder" otherwise. Unknown values
// are rejected here, and Build/Reset surface the error before anything runs.
func (c Config) SchedulerKind() (string, error) {
	switch c.Scheduler {
	case "":
		if c.TimerWheel {
			return "wheel", nil
		}
		return "ladder", nil
	case "heap", "wheel", "ladder":
		return c.Scheduler, nil
	}
	return "", fmt.Errorf("experiment: unknown scheduler %q (want heap, wheel, or ladder)", c.Scheduler)
}

// Flow bundles the components of one connection. A Flow and everything it
// points to belong to the scenario, which parks the bundle and builds a later
// flow on it: a static flow's *Flow is valid until the next Reset, a dynamic
// flow's (AttachFlow) only until that flow completes or is detached.
type Flow struct {
	Spec     FlowSpec
	ID       packet.FlowID
	detached bool // set by detach; sits in ID's word
	Sender   *tcp.Sender
	Receiver *tcp.Receiver
	NIC      *host.Interface
	// RSS is non-nil for AlgRestricted.
	RSS *core.RestrictedSlowStart

	// The bundle's own controller and the completion hook bound to the
	// bundle. Sender, Receiver and reno point into the flowBundle this Flow
	// heads; every flow built on the bundle re-initializes them (see
	// takeFlow).
	reno       *cc.Reno
	onComplete func()

	// Lifecycle bookkeeping: birth time and the flow's slot in the live
	// churn set (-1 for static flows).
	started sim.Time
	liveIdx int
}

// builtHop is one forward hop's per-scenario metadata: its resolved config
// and the injectors fronting its ingress. The link, queue, RED and
// propagation state all live in the scenario's netem.HopArena, indexed by
// hop id; per-flow egress routing is index dispatch over route spans
// recorded in the arena (see HopArena.SetSpan), so there is no per-hop
// Receiver chain to walk.
type builtHop struct {
	cfg     Hop
	loss    *netem.Loss
	reorder *netem.Reorderer
	dup     *netem.Duplicator
}

// Scenario is a built, runnable testbed.
type Scenario struct {
	Eng   *sim.Engine
	Cfg   Config
	Flows []*Flow
	Rec   *trace.Recorder
	// FR is the always-on flight recorder: every sender, controller, hop
	// queue and injector of the scenario records its congestion events here.
	// Its contents after a run are a pure function of (Config, Seed) —
	// byte-identical no matter which worker or process ran the replicate.
	FR *telemetry.FlightRecorder
	// Topo is the resolved topology the scenario was built from (explicit,
	// or compiled from Cfg.Path). Its hop list is scenario-owned scratch,
	// rewritten by the next Reset.
	Topo Topology
	hops []builtHop
	// arena is the forward data path: every hop's serializer, queue/RED
	// and propagation state indexed by hop id, with per-flow route spans
	// and index-based hop hand-off. It survives Reset and is reconfigured
	// in place.
	arena    *netem.HopArena
	dm       *demux      // forward egress → per-flow receivers
	flowGen  []uint32    // FlowID → current incarnation (see demux)
	sndDemux *demux      // reverse egress → per-flow senders
	revLink  *netem.Link // non-nil when the reverse channel is real
	// Ideal reverse path (Reverse.Rate == 0): ACKs ride delay lines shared
	// by every flow with the same reverse delay, feeding sndDemux — one
	// armed calendar entry per distinct delay instead of one delay line per
	// flow. Admission reserves each ACK's engine sequence exactly when a
	// per-flow wire would have, so delivery order is byte-identical (see
	// netem.DelayLine's ordering contract).
	ackLines  []*netem.DelayLine
	ackDelays []time.Duration
	hosts     map[int]*host.Interface           // shared NICs by FlowSpec.Host
	hostEntry map[int]int                       // shared NICs' first-hop index
	rssByHost map[int]*core.RestrictedSlowStart // shared controllers by FlowSpec.Host

	// park is where Reset puts the previous run's components and where
	// init and buildFlow look before allocating (see parked).
	park parked
	// startFn starts a static flow's workload at its StartAt; bound once
	// so scheduling it (ScheduleArg, the flow as argument) never allocates.
	startFn func(any)

	// churn is the dynamic-flow machinery (Cfg.Churn != nil): arrival
	// source, size stream, live set and completed-flow records. Its nextID
	// counter is live even without churn so manual AttachFlow works on any
	// scenario.
	churn churnState

	// Cross-flow aggregate cache, keyed by the virtual time it was
	// computed at, so repeated ResultFor calls after a run stay O(flows)
	// total instead of O(flows²). A Result borrows it and hopStats.
	aggAt     sim.Time
	aggValid  bool
	aggTps    []unit.Bandwidth
	aggStats  []web100.Stats
	aggTotals Totals
	hopStats  []HopStats

	// segs is the scenario's segment allocator: one simulation is one
	// logical thread, so a plain freelist suffices. It survives Reset, and
	// Reset returns every segment the previous run still had checked out,
	// so campaign replicates after the first run entirely on recycled
	// segments.
	segs *packet.Pool

	// ftab is the shared struct-of-arrays flow table every sender of the
	// scenario draws its hot-state row from; detached dynamic flows return
	// their rows, so the table is bounded by the peak live population. It
	// survives Reset like the segment pool. wheel is the endpoint-timer
	// wheel, allocated on the first Cfg.TimerWheel run and kept (reset)
	// across replicates.
	ftab  *tcp.FlowTable
	wheel *sim.Wheel
	// tcpCfgs are this run's connection configs, one per distinct MSS, SACK
	// and stall policy among its flows. Every sender and receiver holds a
	// pointer to its flow's entry instead of a copy (see tcpConfig); Reset
	// parks them for the next run to rebuild in place.
	tcpCfgs []*tcp.Config
}

// demux routes segments to per-flow receivers. Flow IDs are dense small
// integers, so routing is a slice index; churn recycles the IDs of detached
// flows (the route table stays bounded by the peak live population), so each
// route also carries the generation of the flow incarnation that owns it —
// a stray in-flight segment of a dead flow carries the old generation and
// is released instead of delivered to the ID's next owner.
type demux struct {
	routes []netem.Receiver // indexed by FlowID
	gens   []uint32         // owning incarnation per route
}

func (d *demux) set(id packet.FlowID, gen uint32, r netem.Receiver) {
	d.routes = extend(d.routes, int(id)+1)
	d.gens = extend(d.gens, int(id)+1)
	d.routes[id] = r
	d.gens[id] = gen
}

// reset empties the table, keeping its capacity.
func (d *demux) reset() {
	clear(d.routes)
	clear(d.gens)
	d.routes, d.gens = d.routes[:0], d.gens[:0]
}

// extend returns s lengthened to at least n entries in one step. The added
// entries read zero as long as whoever shortens s clears it first, which
// every reset in this package does.
func extend[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	return slices.Grow(s, n-len(s))[:n]
}

// parked is the scenario's recycling store. Reset flushes the previous
// run's flow bundles, NICs, restricted-slow-start controllers and connection
// configs and parks them here, and detach parks a dynamic flow's (see
// Scenario.detach); init and buildFlow take a parked component and
// re-initialize it (each type's Init, the routine its constructor runs too,
// or a fresh DefaultConfig) before they allocate a new one. A replicate
// after the first therefore allocates nothing for its testbed, steady flow
// turnover allocates nothing per arrival, and rings, windows and FIFOs start
// at the capacity earlier owners grew them to.
type parked struct {
	flows []*Flow
	nics  []*host.Interface
	rss   []*core.RestrictedSlowStart
	cfgs  []*tcp.Config
	// held is the bundle that completed last. Its sender's Receive may
	// still be unwinding around the completion hook (it goes on to trySend),
	// so take must not see it yet: the next completion — a later engine
	// event — or Reset moves it to flows.
	held *Flow
	// tables backs the scenario's two demux pointers (forward, reverse);
	// hops and specs are init's topology scratch.
	tables [2]demux
	hops   []Hop
	specs  []netem.HopSpec
}

// take pops a parked component, or returns a zero one for Init to shape.
func take[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return new(T)
	}
	v := (*free)[n-1]
	(*free)[n-1] = nil
	*free = (*free)[:n-1]
	return v
}

// trim drops the parked components beyond the first n.
func trim[T any](free *[]*T, n int) {
	if len(*free) > n {
		clear((*free)[n:])
		*free = (*free)[:n]
	}
}

// flowBundle is the storage of one connection: the Flow and the 1:1 parts
// that live and die with it, in one object. The Flow's pointer fields point
// into the bundle it heads, so nothing else has to know the layout.
type flowBundle struct {
	Flow
	sender   tcp.Sender
	receiver tcp.Receiver
	reno     cc.Reno
}

// newFlowBundle allocates a bundle and binds its hooks. The completion
// closure must capture a variable assigned once, hence a function of its own:
// in takeFlow it would move f to the heap on every call, parked bundle or not.
func newFlowBundle(s *Scenario) *Flow {
	b := new(flowBundle)
	f := &b.Flow
	f.liveIdx = -1
	f.Sender, f.Receiver, f.reno = &b.sender, &b.receiver, &b.reno
	f.onComplete = func() { s.completeChurnFlow(f) }
	return f
}

// takeFlow returns a flow bundle: a zero Flow but for its 1:1 parts, every
// one of which buildFlow still has to Init. A parked bundle comes back at the
// address it had, so whoever kept the *Flow of its previous owner now holds
// this flow's.
func (s *Scenario) takeFlow() *Flow {
	if len(s.park.flows) == 0 {
		return newFlowBundle(s)
	}
	f := take(&s.park.flows)
	snd, rcv, reno, onComplete := f.Sender, f.Receiver, f.reno, f.onComplete
	*f = Flow{}
	f.liveIdx = -1
	f.Sender, f.Receiver, f.reno, f.onComplete = snd, rcv, reno, onComplete
	return f
}

func (d *demux) Receive(seg *packet.Segment) {
	if i := int(seg.Flow); i < len(d.routes) && d.routes[i] != nil && d.gens[i] == seg.Gen {
		d.routes[i].Receive(seg)
		return
	}
	seg.Release() // unroutable or stale generation: drop and recycle
}

// Build assembles the testbed described by cfg.
func Build(cfg Config) (*Scenario, error) {
	eng := sim.NewEngine()
	s := &Scenario{
		Eng: eng, Rec: trace.NewRecorder(eng),
		hosts:     map[int]*host.Interface{},
		hostEntry: map[int]int{},
		rssByHost: map[int]*core.RestrictedSlowStart{},
		segs:      packet.NewPool(),
	}
	s.startFn = func(f any) { s.startWorkload(f.(*Flow)) }
	if err := s.init(&cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset rebuilds the scenario in place for cfg on the run context a fresh
// Build would allocate again. The engine keeps its event pool, the recorder
// its series storage, the arena, flow table, wheel and segment pool their
// backing arrays; the previous run's per-flow components are parked and
// re-initialized instead of reallocated (see parked). Every segment the
// previous run left checked out — in an IFQ, a hop queue, a propagation
// FIFO, an ACK line, the reverse link, a deferred reorder delivery — is
// released first, so SegCounters balances right after Reset. A reused
// scenario produces results identical to a freshly built one whatever ran on
// it before (TestResetMatchesFreshBuild,
// TestResetAcrossShapesMatchesFreshBuild), which is what lets campaign
// workers run replicates back to back on one context. The previous run's
// Flows are invalid afterwards. On error the scenario is left half-built
// and must be discarded.
func (s *Scenario) Reset(cfg Config) error {
	s.Eng.Reset()
	s.Rec.Reset()
	if s.park.held != nil {
		s.park.flows, s.park.held = append(s.park.flows, s.park.held), nil
	}
	for _, set := range [2][]*Flow{s.Flows, s.churn.live} {
		for i, f := range set {
			if f.Spec.Host == 0 {
				s.parkNIC(f.NIC)
				if f.RSS != nil {
					s.park.rss = append(s.park.rss, f.RSS)
				}
			}
			s.park.flows = append(s.park.flows, f)
			set[i] = nil
		}
	}
	s.Flows = s.Flows[:0]
	s.park.cfgs, s.tcpCfgs = append(s.park.cfgs, s.tcpCfgs...), s.tcpCfgs[:0]
	if len(s.hosts) > 0 { // shared hosts are the rare shape; skip the map walks without them
		for _, nic := range s.hosts {
			s.parkNIC(nic)
		}
		for _, rss := range s.rssByHost {
			s.park.rss = append(s.park.rss, rss)
		}
		clear(s.hosts)
		clear(s.hostEntry)
		clear(s.rssByHost)
	}
	s.hops = s.hops[:0]
	clear(s.flowGen)
	s.flowGen = s.flowGen[:0]
	if s.revLink != nil {
		s.revLink.Flush()
	}
	s.revLink = nil
	for _, l := range s.ackLines {
		l.Flush()
	}
	s.ackDelays = s.ackDelays[:0]
	s.aggValid = false
	s.churn.reset()
	s.FR.Reset()
	return s.init(&cfg)
}

// parkNIC returns a NIC to the free list buildFlow draws from, releasing
// whatever it still holds (nothing, when detach parks an idle one mid-run).
func (s *Scenario) parkNIC(nic *host.Interface) {
	nic.Flush()
	s.park.nics = append(s.park.nics, nic)
}

// init wires the testbed into the scenario's (fresh or reset) engine and
// recorder. Everything the simulation can observe is rebuilt from cfg, so a
// run is bit-identical whether its context is new or reused.
func (s *Scenario) init(in *Config) error {
	s.Cfg = *in
	cfg := &s.Cfg
	cfg.fillDefaults()
	if n := len(cfg.Flows); n > MaxFlows {
		return fmt.Errorf("experiment: %d flows exceeds the limit of %d per scenario", n, MaxFlows)
	}
	eng := s.Eng
	// Select the calendar backend before anything touches the (empty,
	// just-built or just-reset) engine. Switching per replicate is free:
	// the ladder's pooled rungs and the heap's slice both stay warm on
	// the side that is not active.
	sched, err := cfg.SchedulerKind()
	if err != nil {
		return err
	}
	eng.UseLadder(sched == "ladder")
	rec := s.Rec
	rec.SetEnabled(!cfg.Traceless)
	// The flight recorder survives Reset (same capacity ⇒ same ring, just
	// emptied); a capacity change, to or from the default, re-sizes it.
	ring := cfg.EventLog
	if ring <= 0 {
		ring = telemetry.DefaultRingSize
	}
	if s.FR == nil || s.FR.Cap() != ring {
		s.FR = telemetry.NewFlightRecorder(ring)
	}
	// The flow table and (when enabled) the timer wheel persist across
	// Reset like the segment pool: replicates after the first run entirely
	// on recycled rows. A wheel allocated for an earlier replicate stays
	// cached while a non-wheel config runs — nothing references it then.
	if s.ftab == nil {
		s.ftab = tcp.NewFlowTable(len(cfg.Flows) + 1)
	} else {
		s.ftab.Reset()
	}
	if s.wheel != nil {
		s.wheel.Reset()
	}
	if cfg.TimerWheel && s.wheel == nil {
		s.wheel = sim.NewWheel(eng, sim.DefaultWheelGran, sim.DefaultWheelSlots)
	}
	topo, err := cfg.topology(s.park.hops)
	if err != nil {
		return err
	}
	s.park.hops = topo.Hops
	if err := topo.Validate(); err != nil {
		return err
	}
	s.Topo = topo

	// Forward path: the hop chain flattened into the arena — per-hop
	// serializer, queue/RED and propagation state in parallel arrays, hop
	// hand-off by index, flows exiting at their span's last hop straight to
	// the flow demux. Each hop's ingress may still be fronted by an
	// injector chain (loss → reorder → duplicate); those stay ordinary
	// objects registered with the arena via SetEntry. Every hop arms the
	// 0.9 ramp-speed watch on its running busy counter (one comparison per
	// completed transmission), because which hop is the bottleneck is a
	// load property, not a rate property: on an equal-rate parking lot the
	// contended middle hop binds, not the lowest-rate one. Result-time
	// figures (Utilization, TimeToUtil90, the "util" gauge) read the
	// max-utilization hop.
	dm := &s.park.tables[0]
	dm.reset()
	s.dm = dm
	n := len(topo.Hops)
	if s.arena == nil {
		s.arena = netem.NewHopArena(eng)
	}
	specs := extend(s.park.specs[:0], n)
	s.park.specs = specs
	for i := range topo.Hops {
		hc := &topo.Hops[i]
		sp := netem.HopSpec{Rate: hc.Rate, Delay: hc.Delay, Queue: hc.Queue, Watch: 0.9}
		if hc.Discipline == DiscRED {
			red := netem.DefaultREDConfig(hc.Queue)
			if hc.RED != nil {
				red = *hc.RED
			}
			sp.RED = &red
			sp.REDSeed = injectorSeed(cfg.Seed, i, saltRED)
		}
		specs[i] = sp
	}
	s.arena.Configure(specs, dm, s.FR)
	if cap(s.hops) < n {
		s.hops = make([]builtHop, n)
	}
	s.hops = s.hops[:n]
	for i := range topo.Hops {
		h := &s.hops[i]
		*h = builtHop{cfg: topo.Hops[i]}
		entry := s.arena.Direct(i)
		hasChain := false
		if h.cfg.DuplicateP > 0 {
			h.dup = &netem.Duplicator{
				P: h.cfg.DuplicateP, RNG: sim.NewRNG(injectorSeed(cfg.Seed, i, saltDup)), Next: entry,
				FR: s.FR, Eng: eng, Hop: int32(i),
			}
			entry, hasChain = h.dup, true
		}
		if h.cfg.ReorderP > 0 {
			h.reorder = netem.NewReorderer(eng, h.cfg.ReorderP, h.cfg.ReorderDelay,
				sim.NewRNG(injectorSeed(cfg.Seed, i, saltReorder)), entry)
			h.reorder.FR, h.reorder.Hop = s.FR, int32(i)
			entry, hasChain = h.reorder, true
		}
		if h.cfg.Loss > 0 {
			h.loss = &netem.Loss{
				P: h.cfg.Loss, RNG: sim.NewRNG(injectorSeed(cfg.Seed, i, saltLoss)), Next: entry,
				FR: s.FR, Eng: eng, Hop: int32(i),
			}
			entry, hasChain = h.loss, true
		}
		if hasChain {
			s.arena.SetEntry(i, entry)
		}
	}

	// Reverse channel: a real shared link when Reverse.Rate is set — ACKs
	// from every flow queue behind one serializer. With Rate zero ACKs ride
	// one shared ideal delay line per distinct reverse delay (created on
	// demand in flow build order, see ackLine). Either way sndDemux hands
	// them to their senders by FlowID + generation.
	s.sndDemux = &s.park.tables[1]
	s.sndDemux.reset()
	if topo.Reverse.Rate > 0 {
		rd := topo.Reverse.Delay
		if rd <= 0 {
			rd = topo.ForwardDelay()
		}
		s.revLink = netem.NewLink(eng, topo.Reverse.Rate, rd, netem.NewDropTail(topo.Reverse.Queue), s.sndDemux)
		s.revLink.FR, s.revLink.Hop = s.FR, -1
	}

	for i := range cfg.Flows {
		id := packet.FlowID(i + 1)
		flow, err := buildFlow(s, &cfg.Flows[i], id, false)
		if err != nil {
			return fmt.Errorf("experiment: flow %d: %w", i, err)
		}
		s.Flows = append(s.Flows, flow)
	}
	s.churn.nextID = packet.FlowID(len(cfg.Flows) + 1)
	if cfg.Churn != nil {
		if err := s.initChurn(); err != nil {
			return fmt.Errorf("experiment: churn: %w", err)
		}
	}

	if rec.Enabled() {
		// Scenario-global gauge: cumulative bottleneck utilization, sampled
		// so time-to-threshold metrics can read the ramp from the recorder.
		rec.Gauge("util", func() float64 {
			return s.arena.Port(s.bottleneck(eng.Now())).Utilization(eng.Now())
		})
		// Per-hop and reverse-queue occupancy gauges, only when the
		// topology actually has them: a one-hop ideal-reverse scenario
		// records exactly the pre-topology series set.
		if n > 1 {
			for i := range s.hops {
				hop := i
				rec.Gauge(fmt.Sprintf("hopq/%d", i), func() float64 {
					return float64(s.arena.Port(hop).Len())
				})
			}
		}
		if l := s.revLink; l != nil {
			rec.Gauge("revq", func() float64 { return float64(l.Len()) })
		}
	}
	return nil
}

// bottleneck returns the index of the hop whose serializer has the highest
// cumulative utilization at now — the stage that actually binds the path
// under the run's load (earliest hop on ties, so a one-hop path is trivially
// its own bottleneck and pre-topology figures are unchanged).
func (s *Scenario) bottleneck(now sim.Time) int {
	best := 0
	bu := s.arena.Port(0).Utilization(now)
	for i := 1; i < len(s.hops); i++ {
		if u := s.arena.Port(i).Utilization(now); u > bu {
			best, bu = i, u
		}
	}
	return best
}

// ackLine returns the shared ideal-reverse delay line for delay d, setting
// it up on first use. Lines are keyed by exact delay (a handful of distinct
// values per topology), so a linear scan beats any map. ackLines keeps every
// line the scenario ever made; the first len(ackDelays) are this run's, the
// rest wait (flushed) for a run that needs more.
func (s *Scenario) ackLine(d time.Duration) *netem.DelayLine {
	for i, ad := range s.ackDelays {
		if ad == d {
			return s.ackLines[i]
		}
	}
	i := len(s.ackDelays)
	if i == len(s.ackLines) {
		s.ackLines = append(s.ackLines, new(netem.DelayLine))
	}
	s.ackLines[i].Init(s.Eng, d, s.sndDemux)
	s.ackDelays = append(s.ackDelays, d)
	return s.ackLines[i]
}

// nextGen advances and returns the FlowID's incarnation counter. The first
// owner of an ID gets generation 1, so a cleared route (generation 0) can
// never match a stamped segment.
func (s *Scenario) nextGen(id packet.FlowID) uint32 {
	s.flowGen = extend(s.flowGen, int(id)+1)
	s.flowGen[id]++
	return s.flowGen[id]
}

// buildFlow wires one sender/receiver pair into the scenario, on parked
// components where there are any (see parked): every part is shaped by its
// Init, so a recycled bundle and a new one are indistinguishable. Static
// flows (dynamic=false) register traced series and start their workload at
// StartAt; dynamic flows — churn arrivals attached mid-run — record no
// series (a short-lived flow must not grow the recorder's series set), and
// start their workload synchronously at attach time.
func buildFlow(s *Scenario, spec *FlowSpec, id packet.FlowID, dynamic bool) (*Flow, error) {
	eng := s.Eng
	cfg := &s.Cfg

	first, last, err := spec.Route.span(len(s.hops))
	if err != nil {
		return nil, err
	}
	s.arena.SetSpan(id, first, last)
	gen := s.nextGen(id)
	tcpCfg := s.tcpConfig(spec)

	var nic *host.Interface
	if spec.Host != 0 {
		nic = s.hosts[spec.Host]
		if nic != nil && s.hostEntry[spec.Host] != first {
			return nil, fmt.Errorf("host %d is attached to hop %d, flow routes from hop %d",
				spec.Host, s.hostEntry[spec.Host], first)
		}
	}
	if nic == nil {
		nic = take(&s.park.nics)
		nic.Init(eng, host.InterfaceConfig{
			Rate:       cfg.Path.NICRate,
			TxQueueLen: cfg.Path.TxQueueLen,
		}, s.arena.Ingress(first))
		if spec.Host != 0 {
			s.hosts[spec.Host] = nic
			s.hostEntry[spec.Host] = first
		}
	}

	flow := s.takeFlow()
	flow.Spec, flow.ID, flow.NIC, flow.started = *spec, id, nic, eng.Now()
	if err := buildController(s, flow); err != nil {
		return nil, err
	}

	// Reverse path: receiver -> reverse channel -> sender. With a real
	// reverse link the ACKs join the shared queue; otherwise they ride the
	// shared ideal delay line matching the flow's route delay. Either way a
	// demux hands them to the sender by FlowID + generation — the route is
	// registered right after the sender exists, before any data (and hence
	// any ACK) can be in flight.
	var ackPath netem.Receiver
	if s.revLink != nil {
		ackPath = s.revLink
	} else {
		rd := s.Topo.Reverse.Delay
		if rd <= 0 {
			for i := first; i <= last; i++ {
				rd += s.Topo.Hops[i].Delay
			}
		}
		ackPath = s.ackLine(rd)
	}
	flow.Receiver.Init(eng, tcpCfg, id, gen, ackPath)
	s.dm.set(id, gen, flow.Receiver)

	flow.Sender.Init(eng, tcpCfg, id, gen, flow.reno, nic)
	flow.Sender.SetFlightRecorder(s.FR)
	s.sndDemux.set(id, gen, flow.Sender)
	if s.Rec.Enabled() && !dynamic {
		// Figure 1's series: the Web100 SendStall count at every stall.
		stalls, snd := s.Rec.Series(fmt.Sprintf("stalls/%d", id)), flow.Sender
		snd.OnStall = func() { stalls.Add(eng.Now(), float64(snd.Stats().SendStall)) }
		registerFlowGauges(s, flow)
	}

	// Workload: dynamic flows start at attach time (now), static flows at
	// their configured StartAt.
	if dynamic {
		s.startWorkload(flow)
	} else {
		eng.ScheduleArg(sim.At(spec.StartAt), s.startFn, flow)
	}
	return flow, nil
}

// tcpConfig returns this run's shared connection config for spec, filling a
// parked (or new) one from DefaultConfig for the first flow that needs it. A
// run's flows differ in a few knobs at most, so a scan beats any map.
func (s *Scenario) tcpConfig(spec *FlowSpec) *tcp.Config {
	want := tcp.DefaultConfig()
	want.Pool, want.Table = s.segs, s.ftab
	if s.Cfg.TimerWheel {
		want.Wheel = s.wheel
	}
	if spec.MSS > 0 {
		want.MSS = spec.MSS
	}
	want.SACK = spec.SACK
	if spec.Alg == AlgStallWait || spec.StallWait {
		want.Stall = tcp.StallWait
	}
	for _, c := range s.tcpCfgs {
		if *c == want {
			return c
		}
	}
	c := take(&s.park.cfgs)
	*c = want
	s.tcpCfgs = append(s.tcpCfgs, c)
	return c
}

// registerFlowGauges adds a static flow's sampled series to the recorder.
func registerFlowGauges(s *Scenario, flow *Flow) {
	eng, nic, mss := s.Eng, flow.NIC, float64(flow.Sender.MSS())
	s.Rec.Gauge(fmt.Sprintf("cwnd_segs/%d", flow.ID), func() float64 {
		return float64(flow.Sender.Cwnd()) / mss
	})
	s.Rec.Gauge(fmt.Sprintf("ifq/%d", flow.ID), func() float64 {
		return float64(nic.Len())
	})
	s.Rec.Gauge(fmt.Sprintf("goodput_mbps/%d", flow.ID), func() float64 {
		return float64(flow.Sender.Stats().Throughput(eng.Now())) / 1e6
	})
}

// startWorkload hands the flow's sender its data: Bytes at once and the end
// of the stream (the paper's bulk transfer), or, with no Bytes, a backlog
// the run's duration ends first.
func (s *Scenario) startWorkload(flow *Flow) {
	if b := flow.Spec.Bytes; b > 0 {
		flow.Sender.Supply(b)
		flow.Sender.Close()
		return
	}
	flow.Sender.Supply(1 << 62)
}

// buildController initializes the flow bundle's Reno with the slow-start
// policy its spec selects, wiring a (parked or new) restricted-slow-start
// controller to the flow's NIC for AlgRestricted.
func buildController(s *Scenario, flow *Flow) error {
	spec := &flow.Spec
	var ss cc.SlowStartPolicy // nil: Reno's standard slow-start
	switch spec.Alg {
	case AlgRestricted:
		// Flows sharing a host share the per-interface controller (the
		// process variable is the interface queue); the first flow's
		// gains and set point apply.
		rss := s.rssByHost[spec.Host] // Host 0 is never stored
		if rss == nil {
			rss = take(&s.park.rss)
			err := rss.Init(s.Eng, core.Config{
				Sensor:           flow.NIC,
				Gains:            spec.Gains,
				SetpointFraction: spec.SetpointFraction,
				Tick:             spec.Tick,
				AllowShrink:      spec.AllowShrink,
			})
			if err != nil {
				return err
			}
			if spec.Host != 0 {
				s.rssByHost[spec.Host] = rss
			}
		}
		flow.RSS, ss = rss, rss
	case AlgLimited:
		ss = cc.LimitedSlowStart{}
	case AlgStandardABC:
		ss = cc.StdSlowStart{ABC: true}
	case AlgHyStart:
		ss = cc.NewHyStart()
	case AlgStandard, AlgStallWait, "":
	default:
		return fmt.Errorf("unknown algorithm %q", spec.Alg)
	}
	flow.reno.Init(cc.RenoConfig{SS: ss})
	flow.reno.SetTelemetry(s.FR, int32(flow.ID))
	return nil
}

// Totals aggregates counters over every flow of the scenario; the rest of
// Result describes one flow (plus path-global gauges like Utilization).
// Campaign metrics read these so multi-flow cells summarize without
// re-walking the scenario.
type Totals struct {
	// Stalls is the send-stall count summed over all flows.
	Stalls int64
	// CongSignals is the congestion-episode count summed over all flows.
	CongSignals int64
	// Timeouts is the RTO count summed over all flows.
	Timeouts int64
	// Collapses counts send-stall-induced cwnd collapses (Web100
	// LocalCongCwnd) summed over all flows — the paper's failure mode.
	Collapses int64
}

// Result summarizes the measured (first) flow after a run. Its slices are
// borrowed from the scenario: valid until its next Run or Reset (or, with Eng
// driven by hand, its next ResultFor at a later instant); copy to keep them.
type Result struct {
	Alg         Algorithm
	Stats       web100.Stats
	Throughput  unit.Bandwidth
	Stalls      int64
	NIC         host.InterfaceStats
	Utilization float64
	RouterDrops int64
	// InjectedDrops counts segments discarded by the Path.Loss injector.
	InjectedDrops int64
	Duration      time.Duration
	// FlowThroughputs lists every flow's goodput in Flows order (the
	// measured flow is entry 0), enabling cross-flow metrics such as
	// Jain's fairness index.
	FlowThroughputs []unit.Bandwidth
	// FlowStats carries every flow's full Web100 snapshot in Flows order —
	// the paper's per-connection instrument set, exported so send-stall
	// analysis is reproducible from a run's output alone.
	FlowStats []web100.Stats
	// Totals aggregates event counters over all flows.
	Totals Totals
	// TimeToUtil90 is the first instant the bottleneck's cumulative
	// utilization reached 90%, or -1 if it never did. It is latched from
	// the hop's running busy counter (see netem.HopSpec.Watch), so it is
	// available in traceless runs where no gauge was sampled.
	TimeToUtil90 time.Duration
	// Hops carries per-hop aggregates in forward order: drops, injector
	// counts, queue high-water/average occupancy and utilization. A
	// compiled dumbbell has exactly one entry; RouterDrops and
	// InjectedDrops above are the totals over all hops.
	Hops []HopStats
	// ReverseDrops counts ACKs refused by the reverse channel's queue
	// (always zero on the ideal pure-delay reverse wire).
	ReverseDrops int64
	// Flows lists completed dynamic (churn) flows in completion order —
	// every one by default, the first Config.RetainFlows under a positive
	// cap, none under a negative one. Empty for static runs, so legacy
	// exports are unchanged.
	Flows []FlowRecord `json:",omitempty"`
	// FCT is the streaming digest of every completed dynamic flow — always
	// full-population, regardless of the RetainFlows cap on Flows. Nil
	// when the run completed none.
	FCT *FCTSummary `json:",omitempty"`
	// FlowsActive counts dynamic flows still live when the run ended.
	FlowsActive int `json:",omitempty"`
	// FlowsRefused counts arrivals turned away by ChurnSpec.MaxLive.
	FlowsRefused int64 `json:",omitempty"`
	// Series exposes the recorder for figure generation.
	Rec *trace.Recorder
}

// Run executes the scenario for its configured duration and summarizes the
// primary flow.
func (s *Scenario) Run() Result {
	if s.Rec.Enabled() {
		// The run length and sample period are both known: pre-size every
		// gauge series so sampling never reallocates mid-run.
		if s.Cfg.Sample > 0 {
			s.Rec.ReserveSamples(int(s.Cfg.Duration/s.Cfg.Sample) + 1)
		}
		s.Rec.Sample(s.Cfg.Sample)
	}
	s.Eng.RunUntil(sim.At(s.Cfg.Duration))
	return s.ResultFor(0)
}

// ResultFor summarizes any flow by index (after Run).
func (s *Scenario) ResultFor(i int) Result {
	now := s.Eng.Now()
	// Per-flow figures come from the indexed static flow; a churn-only run
	// has none, so those fields describe the dynamic population instead
	// (template algorithm, aggregate goodput, zero Web100 snapshot).
	var f *Flow
	if i < len(s.Flows) {
		f = s.Flows[i]
	} else if i > 0 || len(s.Flows) > 0 {
		panic(fmt.Sprintf("experiment: no flow %d", i))
	}
	var injected, routerDrops int64
	s.hopStats = extend(s.hopStats[:0], len(s.hops))
	for hi := range s.hops {
		h, p := &s.hops[hi], s.arena.Port(hi)
		q := p.QueueStats()
		hs := HopStats{
			Drops:       q.Dropped,
			MaxQueue:    q.MaxLen,
			AvgQueue:    p.AvgQueueLen(now),
			Utilization: p.Utilization(now),
		}
		routerDrops += q.Dropped
		if h.loss != nil {
			hs.LossDrops = h.loss.Dropped()
			injected += hs.LossDrops
		}
		if h.reorder != nil {
			hs.Reordered = h.reorder.Reordered()
		}
		if h.dup != nil {
			hs.Duplicated = h.dup.Duplicated()
		}
		s.hopStats[hi] = hs
	}
	tps, flowStats, totals := s.flowAggregates(now)
	bn := s.bottleneck(now)
	t90 := time.Duration(-1)
	if at, ok := s.arena.UtilizationReachedAt(bn); ok {
		t90 = at.Duration()
	}
	res := Result{
		Utilization:     s.arena.Port(bn).Utilization(now),
		RouterDrops:     routerDrops,
		InjectedDrops:   injected,
		Duration:        now.Duration(),
		FlowThroughputs: tps,
		FlowStats:       flowStats,
		Totals:          totals,
		TimeToUtil90:    t90,
		Hops:            slices.Clip(s.hopStats),
		FlowsActive:     len(s.churn.live),
		FlowsRefused:    s.churn.refused,
		Rec:             s.Rec,
	}
	if s.revLink != nil {
		res.ReverseDrops = s.revLink.QueueStats().Dropped
	}
	if len(s.churn.records) > 0 {
		res.Flows = slices.Clip(s.churn.records)
	}
	res.FCT = s.churn.fctSummary()
	if f != nil {
		st := f.Sender.Stats().Snapshot(now)
		res.Alg = f.Spec.Alg
		res.Stats = st
		res.Throughput = st.Throughput(now)
		res.Stalls = st.SendStall
		res.NIC = f.NIC.Stats()
	} else {
		res.Alg = s.churn.tmpl.Alg
		res.Throughput = unit.Throughput(unit.ByteSize(s.churnBytesAcked(now)), now.Duration())
	}
	return res
}

// flowAggregates computes (and caches per virtual time) the cross-flow
// throughput list (churn traffic as one last aggregate entry, so cross-flow
// metrics see it), per-flow Web100 snapshots and counter totals. The slices
// returned are the cache, capacity-clipped, for a Result to borrow.
func (s *Scenario) flowAggregates(now sim.Time) ([]unit.Bandwidth, []web100.Stats, Totals) {
	if !s.aggValid || s.aggAt != now {
		// Every entry is assigned below, so the cache's previous contents
		// (an earlier instant, an earlier run) need no clearing.
		tps := extend(s.aggTps[:0], len(s.Flows))
		stats := extend(s.aggStats[:0], len(s.Flows))
		var totals Totals
		for j, fl := range s.Flows {
			fst := fl.Sender.Stats().Snapshot(now)
			tps[j] = fst.Throughput(now)
			stats[j] = fst
			totals.Stalls += fst.SendStall
			totals.CongSignals += fst.CongSignals
			totals.Timeouts += fst.Timeouts
			totals.Collapses += fst.LocalCongCwnd
		}
		// Dynamic flows contribute too: detached ones were folded into the
		// churn totals at teardown, live ones are snapshotted here.
		totals.add(s.churn.totals)
		for _, fl := range s.churn.live {
			fst := fl.Sender.Stats().Snapshot(now)
			totals.Stalls += fst.SendStall
			totals.CongSignals += fst.CongSignals
			totals.Timeouts += fst.Timeouts
			totals.Collapses += fst.LocalCongCwnd
		}
		if s.Cfg.Churn != nil {
			tps = append(tps, unit.Throughput(unit.ByteSize(s.churnBytesAcked(now)), now.Duration()))
		}
		s.aggTps, s.aggStats, s.aggTotals, s.aggAt, s.aggValid = tps, stats, totals, now, true
	}
	return slices.Clip(s.aggTps), slices.Clip(s.aggStats), s.aggTotals
}

// WheelStats returns the endpoint-timer wheel's lifetime counters, and
// whether the scenario has ever run with a wheel (the wheel survives Reset,
// so the counters span every replicate run on this scenario).
func (s *Scenario) WheelStats() (sim.WheelStats, bool) {
	if s.wheel == nil {
		return sim.WheelStats{}, false
	}
	return s.wheel.Stats(), true
}

// StallSeries returns the cumulative send-stall series of flow i.
func (s *Scenario) StallSeries(i int) *trace.Series {
	return s.Rec.Series(fmt.Sprintf("stalls/%d", s.Flows[i].ID))
}
