// Package experiment assembles complete simulated testbeds — hosts, paths,
// flows, instrumentation — and regenerates every figure and table of the
// paper's evaluation plus the ablations DESIGN.md calls out.
package experiment

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"rsstcp/internal/cc"
	"rsstcp/internal/core"
	"rsstcp/internal/host"
	"rsstcp/internal/lifecycle"
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
	// PathConfig.Topology.

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

// fillDefaults resolves zero fields; Config.Validate refused negative ones.
func (p *PathConfig) fillDefaults() {
	if p.Bottleneck == 0 {
		p.Bottleneck = 100 * unit.Mbps
	}
	if p.RTT == 0 {
		p.RTT = 60 * time.Millisecond
	}
	if p.RouterQueue == 0 {
		p.RouterQueue = 250
	}
	if p.NICRate == 0 {
		p.NICRate = p.Bottleneck
	}
	if p.TxQueueLen == 0 {
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

// samplePeriod is a traced run's gauge sampling period.
const samplePeriod = 100 * time.Millisecond

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
	// Seed feeds all randomness (default 1).
	Seed uint64
	// EventLog sets the flight-recorder ring capacity in events; zero means
	// telemetry.DefaultRingSize, and it may not be negative or exceed
	// telemetry.MaxRingSize. The recorder is always on — unlike tracing it
	// allocates nothing per event once full, and its ring grows only as far
	// as a run records — so this only sizes how much congestion history the
	// ring retains.
	EventLog int `json:",omitempty"`
	// Traceless disables time-series recording entirely: the scenario
	// holds no recorder (Rec is nil), so there are no sampled gauge series,
	// no per-event points and no sampling ticker on the calendar. Every
	// scalar in Result (throughput, stalls, utilization, drop counters,
	// TimeToUtil90) is computed from running counters and is identical
	// with or without tracing; only Rec-based series readers
	// (figure generation) need tracing. Campaign workers run traceless so
	// million-run sweeps spend nothing on series nobody reads.
	Traceless bool
	// TimerWheel hosts every endpoint timer (each sender's RTO, each
	// receiver's delayed ACK) on a timer wheel over the calendar instead
	// of on the calendar itself. The observable schedule is byte-identical
	// either way (see sim.Wheel); the wheel keeps calendar depth flat when
	// tens of thousands of flows re-arm timers on every ACK.
	TimerWheel bool `json:",omitempty"`
	// RetainFlows caps how many completed-flow records Result.Flows keeps:
	// 0 retains every record (the legacy default), -1 retains none, a
	// positive cap keeps the first N in completion order. The streaming
	// Result.FCT summary covers every completion regardless of the cap, so
	// many-flows churn runs can bound memory without losing their
	// completion-time figures.
	RetainFlows int `json:",omitempty"`
}

// Validate returns why c is outside the domain a run accepts, as one line
// naming the field, or nil. Zero means the default in every field. Build,
// Reset and the campaign's Plan.Validate ask it first, so defaulting fills
// exact zeros only and a valid config compiles to a valid topology. It
// allocates nothing unless it fails or has a Churn spec to parse.
func (c *Config) Validate() error { return c.validate(nil, nil) }

// validate is Validate that also hands a churn spec's parsed arrivals and
// sizes to non-nil src and dist, so Build and Reset parse each spec once.
func (c *Config) validate(src *lifecycle.FlowSource, dist *lifecycle.SizeDist) error {
	if c.Topology != nil {
		if err := c.Topology.Validate(); err != nil {
			return err
		}
	}
	if err := c.check(src, dist); err != nil {
		return fmt.Errorf("experiment: %v", err)
	}
	return nil
}

// check is validate but for the explicit topology and the package prefix.
func (c *Config) check(src *lifecycle.FlowSource, dist *lifecycle.SizeDist) error {
	p := &c.Path
	if err := cmp.Or(neg("Path.Bottleneck", p.Bottleneck), neg("Path.RTT", p.RTT),
		neg("Path.RouterQueue", p.RouterQueue), neg("Path.NICRate", p.NICRate), neg("Path.TxQueueLen", p.TxQueueLen),
		neg("Path.Hops", p.Hops), neg("Path.ReverseRate", p.ReverseRate), neg("Path.ReverseDelay", p.ReverseDelay),
		neg("Path.ReverseQueue", p.ReverseQueue), neg("Duration", c.Duration), fraction("Path.Loss", p.Loss)); err != nil {
		return err
	}
	switch {
	case p.Hops > MaxHops:
		return fmt.Errorf("Path.Hops %d exceeds the limit of %d per path", p.Hops, MaxHops)
	case !knownDiscipline(p.AQM):
		return fmt.Errorf("Path.AQM: unknown queue discipline %q", p.AQM)
	case len(c.Flows) > MaxFlows:
		return fmt.Errorf("Flows: %d flows exceeds the limit of %d per scenario", len(c.Flows), MaxFlows)
	case c.EventLog < 0 || c.EventLog > telemetry.MaxRingSize:
		return fmt.Errorf("EventLog: event log of %d events is outside 0..%d", c.EventLog, telemetry.MaxRingSize)
	case c.RetainFlows < -1:
		return fmt.Errorf("RetainFlows %d is below -1", c.RetainFlows)
	}
	for i := range c.Flows {
		if err := c.Flows[i].check(); err != nil {
			return fmt.Errorf("Flows[%d].%v", i, err)
		}
	}
	if c.Churn != nil {
		return c.Churn.check(src, dist)
	}
	return nil
}

// check is Validate's per-flow part; the error starts with the field name.
func (f *FlowSpec) check() error {
	if f.Alg != "" && !slices.Contains(Algorithms(), f.Alg) {
		return fmt.Errorf("Alg: unknown algorithm %q", f.Alg)
	}
	return cmp.Or(neg("StartAt", f.StartAt), neg("Bytes", f.Bytes), neg("MSS", f.MSS), neg("Tick", f.Tick),
		fraction("SetpointFraction", f.SetpointFraction),
		neg("Route.FirstHop", f.Route.FirstHop), neg("Route.Hops", f.Route.Hops))
}

// neg is the error of a negative field, naming it; nil when v ≥ 0.
func neg[T ~int | ~int64](field string, v T) error {
	if v < 0 {
		return fmt.Errorf("%s %v is negative", field, v)
	}
	return nil
}

// fraction is the error of a probability or fraction outside [0, 1], NaN
// included, naming it; nil when v is in range.
func fraction(field string, v float64) error {
	if !(v >= 0 && v <= 1) {
		return fmt.Errorf("%s %v is outside [0, 1]", field, v)
	}
	return nil
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
	if c.Duration == 0 {
		c.Duration = 25 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Flow is the storage of one connection: the parts that live and die with
// it — endpoints, controller and the private NIC of the sending host — held
// by value in one object. A flow on a shared host sends through the NIC of
// the host's first flow and leaves its own unused. A Flow belongs to the
// scenario, which parks it and builds a later flow on it: a static flow's
// *Flow is valid until the next Reset, a dynamic flow's (AttachFlow) only
// until that flow completes or is detached.
type Flow struct {
	// Spec is the flow's spec with Bytes and StartAt cleared, shared by
	// every flow of the run built from an equal one (see sharedSpec).
	Spec  *FlowSpec
	Bytes int64 // the flow's FlowSpec.Bytes
	ID    packet.FlowID
	// liveIdx is the flow's slot in the live churn set (-1 for static
	// flows); it sits in ID's word.
	liveIdx int32
	// RSS is non-nil for AlgRestricted.
	RSS *core.RestrictedSlowStart

	Sender   tcp.Sender
	Receiver tcp.Receiver
	reno     cc.Reno
	nic      host.Interface
}

// NIC returns the interface the flow sends through, its sender's transmit
// path: the flow's own, or, on a host shared by several flows
// (FlowSpec.Host), the NIC of the host's first flow.
func (f *Flow) NIC() *host.Interface { return f.Sender.Path().(*host.Interface) }

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
	// arena is the forward data path: one row per hop — serializer,
	// queue/RED, propagation and injectors — with per-flow route spans and
	// index-based hop hand-off. It survives Reset and is reconfigured in
	// place.
	arena *netem.HopArena
	// byID is the flow table, the forward and reverse demux (dataDemux,
	// ackDemux).
	byID flowTable
	// rev is the shared reverse channel when Reverse.Rate is set (nil
	// otherwise): revStage on revQueue, re-initialized in place by init.
	rev      *netem.Link
	revStage netem.Link
	revQueue netem.DropTail
	// Ideal reverse path (Reverse.Rate == 0): ACKs ride delay lines shared
	// by every flow with the same reverse delay, feeding ackDemux — one
	// armed calendar entry per distinct delay instead of one delay line per
	// flow. Admission reserves each ACK's engine sequence exactly when a
	// per-flow wire would have, so delivery order is byte-identical (see
	// netem.DelayLine's ordering contract).
	ackLines  []*netem.DelayLine
	ackDelays []time.Duration
	hosts     map[int]sharedHost // by FlowSpec.Host; Host 0 is never stored

	// park is where Reset puts the previous run's components and where
	// init and buildFlow look before allocating (see parked).
	park parked
	// complete is every dynamic flow's completion hook (completeChurnFlow),
	// made once in Build so attaching a flow binds nothing.
	complete func(*tcp.Sender)

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

	// wheel is the endpoint-timer wheel, allocated on the first
	// Cfg.TimerWheel run and kept (reset) across replicates like the
	// segment pool.
	wheel *sim.Wheel
	// stalls are a traced run's static flows' Figure-1 series, indexed by
	// FlowID-1 (see stalled).
	stalls []*trace.Series
	// shared are this run's flow specs, one per distinct FlowSpec among its
	// flows (see sharedSpec); Reset parks them for the next run to refill.
	shared []*sharedSpec
}

// sharedHost is the state the flows of one FlowSpec.Host share: the NIC
// they send through (the host's first flow's own), the hop it feeds, and
// their controller once a restricted flow has built one.
type sharedHost struct {
	nic   *host.Interface
	first int
	rss   *core.RestrictedSlowStart
}

// sharedSpec is one distinct FlowSpec of a run, Bytes and StartAt cleared,
// with the connection and controller configs of its flows: flows, their
// endpoints and their controllers point at it instead of holding copies (see
// Scenario.share).
type sharedSpec struct {
	spec FlowSpec
	tcp  tcp.Config
	reno cc.RenoConfig
}

// flowTable maps FlowIDs, dense small integers, to the flow attached under
// the ID (nil once detached) and the generation of its latest incarnation.
// Churn recycles IDs, so the table stays bounded by the peak live
// population, and a stray segment of a dead flow, stamped with an old
// generation, is released instead of delivered to the ID's next owner.
type flowTable []struct {
	f   *Flow
	gen uint32
}

// flow returns the attached flow seg belongs to, or nil.
func (t flowTable) flow(seg *packet.Segment) *Flow {
	if i := int(seg.Flow); i < len(t) && t[i].gen == seg.Gen {
		return t[i].f
	}
	return nil
}

// dataDemux and ackDemux are the flow table as the forward path's egress
// and the reverse channel's: data segments go to their flows' receivers,
// ACKs to their senders.
type (
	dataDemux flowTable
	ackDemux  flowTable
)

func (d *dataDemux) Receive(seg *packet.Segment) {
	if f := flowTable(*d).flow(seg); f != nil {
		f.Receiver.Receive(seg)
	} else {
		seg.Release() // detached flow or stale generation: drop and recycle
	}
}

func (d *ackDemux) Receive(seg *packet.Segment) {
	if f := flowTable(*d).flow(seg); f != nil {
		f.Sender.Receive(seg)
	} else {
		seg.Release()
	}
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
// run's flows (NICs included), restricted-slow-start controllers and
// shared specs and parks them here, and detach parks a dynamic flow's (see
// Scenario.detach); init and buildFlow take a parked component and
// re-initialize it (each type's Init, the routine its constructor runs too,
// or share's refill) before they allocate a new one. A replicate
// after the first therefore allocates nothing for its testbed, steady flow
// turnover allocates nothing per arrival, and rings, windows and FIFOs start
// at the capacity earlier owners grew them to.
type parked struct {
	flows  []*Flow
	rss    []*core.RestrictedSlowStart
	shared []*sharedSpec
	// held is the bundle that completed last. Its sender's Receive may
	// still be unwinding around the completion hook (it goes on to trySend),
	// so take must not see it yet: the next completion — a later engine
	// event — or Reset moves it to flows.
	held *Flow
	// draining are detached bundles that are not reusable yet (see
	// reusable): their NIC still holds segments or serves a shared host, or
	// their sender's resume waker is still registered. Every takeFlow moves
	// the ones that became reusable to flows, so draining holds about what
	// detached in the last few transmission times; Reset flushes their NICs
	// and parks them all.
	draining []*Flow
	// hops, specs and reds are init's topology scratch.
	hops  []Hop
	specs []netem.HopSpec
	reds  []netem.REDConfig
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

// takeFlow returns a flow whose head fields are zero; its 1:1 parts keep
// their storage, and buildFlow still has to Init every one of them. A parked
// flow comes back at the address it had, so whoever kept the *Flow of its
// previous owner now holds this flow's.
func (s *Scenario) takeFlow() *Flow {
	s.reclaim()
	f := take(&s.park.flows)
	f.Spec, f.Bytes, f.ID, f.liveIdx, f.RSS = nil, 0, 0, -1, nil
	return f
}

// reusable reports whether a detached flow may carry a new flow now. Its
// sender must not have a resume waker registered (the wake would reach the
// next owner), and its own NIC must be idle and serve no shared host: a busy
// NIC still drains segments into the network, and a shared host's NIC
// carries the host's other flows until Reset.
func reusable(f *Flow) bool {
	own := f.NIC() == &f.nic
	return !f.Sender.WakerArmed() && !(own && (f.Spec.Host != 0 || !f.nic.Idle()))
}

// reclaim moves the draining flows that have become reusable to the store.
func (s *Scenario) reclaim() {
	busy := s.park.draining[:0]
	for _, f := range s.park.draining {
		if reusable(f) {
			s.park.flows = append(s.park.flows, f)
		} else {
			busy = append(busy, f)
		}
	}
	clear(s.park.draining[len(busy):])
	s.park.draining = busy
}

// Build assembles the testbed described by cfg.
func Build(cfg Config) (*Scenario, error) {
	s := &Scenario{Eng: sim.NewEngine(), hosts: map[int]sharedHost{}, segs: packet.NewPool()}
	if err := cfg.validate(&s.churn.src, &s.churn.dist); err != nil {
		return nil, err
	}
	s.complete = s.completeChurnFlow
	if err := s.init(&cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset rebuilds the scenario in place for cfg on the run context a fresh
// Build would allocate again. The engine keeps its event pool, the arena,
// flow table, wheel and segment pool their backing arrays, and a traced run
// gets a fresh recorder; the previous run's per-flow components are parked
// and re-initialized instead of reallocated (see parked). Every segment the
// previous run left checked out — in an IFQ (a detached flow's still
// draining one included), a hop queue, a propagation FIFO, an ACK line, the
// reverse link, a deferred reorder delivery — is released first, so
// SegCounters balances right after Reset. A reused
// scenario produces results identical to a freshly built one whatever ran on
// it before (TestResetMatchesFreshBuild,
// TestResetAcrossShapesMatchesFreshBuild), which is what lets campaign
// workers run replicates back to back on one context. The previous run's
// Flows are invalid afterwards. A cfg that Validate refuses leaves the
// scenario as it was; on any later error it is left half-built and must be
// discarded.
func (s *Scenario) Reset(cfg Config) error {
	var src lifecycle.FlowSource
	var dist lifecycle.SizeDist
	if err := cfg.validate(&src, &dist); err != nil {
		return err
	}
	s.Eng.Reset()
	if s.park.held != nil {
		s.park.flows, s.park.held = append(s.park.flows, s.park.held), nil
	}
	// Every NIC of the run is some flow's: attached, detached static, or
	// draining. A flow on a shared host flushes the host's NIC.
	for k, set := range [3][]*Flow{s.Flows, s.churn.live, s.park.draining} {
		for i, f := range set {
			f.NIC().Flush()
			// A draining flow's controller was parked when it detached.
			if k < 2 && f.RSS != nil && f.Spec.Host == 0 {
				s.park.rss = append(s.park.rss, f.RSS)
			}
			s.park.flows = append(s.park.flows, f)
			set[i] = nil
		}
	}
	s.Flows, s.park.draining = s.Flows[:0], s.park.draining[:0]
	s.park.shared, s.shared = append(s.park.shared, s.shared...), s.shared[:0]
	for _, h := range s.hosts {
		if h.rss != nil {
			s.park.rss = append(s.park.rss, h.rss)
		}
	}
	clear(s.hosts)
	clear(s.byID)
	s.byID = s.byID[:0]
	if s.rev != nil {
		s.rev.Flush()
	}
	s.rev = nil
	for _, l := range s.ackLines {
		l.Flush()
	}
	s.ackDelays = s.ackDelays[:0]
	s.aggValid = false
	s.churn.reset()
	s.churn.src, s.churn.dist = src, dist
	s.FR.Reset()
	return s.init(&cfg)
}

// init wires the testbed into the scenario's (fresh or reset) engine, with
// a new recorder when cfg is traced. Everything the simulation can observe
// is rebuilt from cfg, so a run is bit-identical whether its context is new
// or reused. in has passed Validate.
func (s *Scenario) init(in *Config) error {
	s.Cfg = *in
	cfg := &s.Cfg
	cfg.fillDefaults()
	eng := s.Eng
	// A traced run gets a fresh recorder; a traceless one has none.
	s.Rec = nil
	if !cfg.Traceless {
		s.Rec = trace.NewRecorder(eng)
	}
	rec := s.Rec
	// The flight recorder survives Reset (same capacity ⇒ same ring, just
	// emptied); a capacity change, to or from the default, re-sizes it.
	ring := cfg.EventLog
	if ring == 0 {
		ring = telemetry.DefaultRingSize
	}
	if s.FR == nil || s.FR.Cap() != ring {
		s.FR = telemetry.NewFlightRecorder(ring)
	}
	clear(s.stalls)
	s.stalls = s.stalls[:0]
	// The timer wheel (when enabled) persists across Reset like the segment
	// pool. A wheel allocated for an earlier replicate stays cached while a
	// non-wheel config runs — nothing references it then.
	if s.wheel != nil {
		s.wheel.Reset()
	}
	if cfg.TimerWheel && s.wheel == nil {
		s.wheel = sim.NewWheel(eng, sim.DefaultWheelGran, sim.DefaultWheelSlots)
	}
	// The network, in the hop scratch: an explicit Topology wins, else the
	// PathConfig compiles to one (Validate has bounded its split count).
	if cfg.Topology != nil {
		s.Topo = cfg.Topology.cloneInto(s.park.hops)
	} else {
		s.Topo = cfg.Path.compileInto(s.park.hops)
	}
	topo := &s.Topo
	s.park.hops = topo.Hops

	// Forward path: the hop chain flattened into the arena — one row per
	// hop with its serializer, queue/RED, propagation and injector chain
	// (loss → reorder → duplicate, each on its own seeded stream), hop
	// hand-off by index, flows exiting at their span's last hop straight to
	// the flow demux. Every hop arms the 0.9 ramp-speed watch on its
	// running busy counter (one comparison per completed transmission),
	// because which hop is the bottleneck is a load property, not a rate
	// property: on an equal-rate parking lot the contended middle hop
	// binds, not the lowest-rate one. Result-time figures (Utilization,
	// TimeToUtil90, the "util" gauge) read the max-utilization hop.
	n := len(topo.Hops)
	if s.arena == nil {
		s.arena = netem.NewHopArena(eng)
	}
	// RED parameters live in scratch sized at the first RED hop, so no
	// pointer into it moves.
	specs, reds := extend(s.park.specs[:0], n), s.park.reds[:0]
	for i := range topo.Hops {
		hc := &topo.Hops[i]
		sp := netem.HopSpec{Rate: hc.Rate, Delay: hc.Delay, Queue: hc.Queue, Watch: 0.9,
			Loss: hc.Loss, Reorder: hc.ReorderP, Duplicate: hc.DuplicateP, ReorderDelay: hc.ReorderDelay,
			LossSeed: injectorSeed(cfg.Seed, i, saltLoss), ReorderSeed: injectorSeed(cfg.Seed, i, saltReorder),
			DuplicateSeed: injectorSeed(cfg.Seed, i, saltDup)}
		if hc.Discipline == DiscRED {
			reds = extend(reds, n)
			reds[i] = netem.DefaultREDConfig(hc.Queue)
			if hc.RED != nil {
				reds[i] = *hc.RED
				hc.RED = &reds[i] // Topo's private copy
			}
			sp.RED, sp.REDSeed = &reds[i], injectorSeed(cfg.Seed, i, saltRED)
		}
		specs[i] = sp
	}
	s.park.specs, s.park.reds = specs, reds
	s.arena.Configure(specs, (*dataDemux)(&s.byID), s.FR)

	// Reverse channel: a real shared link when Reverse.Rate is set — ACKs
	// from every flow queue behind one serializer. With Rate zero ACKs ride
	// one shared ideal delay line per distinct reverse delay (created on
	// demand in flow build order, see ackLine). Either way ackDemux hands
	// them to their senders by FlowID + generation.
	if topo.Reverse.Rate > 0 {
		rd := topo.Reverse.Delay
		if rd == 0 {
			rd = topo.ForwardDelay()
		}
		s.rev = &s.revStage
		s.revQueue.Init(topo.Reverse.Queue)
		s.rev.Init(eng, topo.Reverse.Rate, rd, &s.revQueue, (*ackDemux)(&s.byID))
		s.rev.FR, s.rev.Hop = s.FR, -1
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

	if rec != nil {
		// Scenario-global gauge: cumulative bottleneck utilization, sampled
		// so time-to-threshold metrics can read the ramp from the recorder.
		rec.Gauge("util", func() float64 {
			return s.arena.Port(s.bottleneck(eng.Now())).Utilization(eng.Now())
		})
		// Per-hop and reverse-queue occupancy gauges, only when the
		// topology actually has them: a one-hop ideal-reverse scenario
		// records exactly the pre-topology series set.
		if n > 1 {
			for i := range n {
				rec.Gauge(fmt.Sprintf("hopq/%d", i), func() float64 {
					return float64(s.arena.Port(i).Len())
				})
			}
		}
		if l := s.rev; l != nil {
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
	for i := 1; i < len(s.Topo.Hops); i++ {
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
	s.ackLines[i].Init(s.Eng, d, (*ackDemux)(&s.byID))
	s.ackDelays = append(s.ackDelays, d)
	return s.ackLines[i]
}

// nextGen advances and returns the FlowID's incarnation counter. The first
// owner of an ID gets generation 1, so a fresh slot (generation 0) can never
// match a stamped segment.
func (s *Scenario) nextGen(id packet.FlowID) uint32 {
	s.byID = extend(s.byID, int(id)+1)
	s.byID[id].gen++
	return s.byID[id].gen
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

	first, last, err := spec.Route.span(len(s.Topo.Hops))
	if err != nil {
		return nil, err
	}
	s.arena.SetSpan(id, first, last)
	gen := s.nextGen(id)
	shared := s.share(spec)

	h := s.hosts[spec.Host]
	nic := h.nic
	if nic != nil && h.first != first {
		return nil, fmt.Errorf("host %d is attached to hop %d, flow routes from hop %d",
			spec.Host, h.first, first)
	}
	flow := s.takeFlow()
	if nic == nil {
		// The flow's own NIC; a shared host's first flow lends it to the host.
		nic = &flow.nic
		nic.Init(eng, host.InterfaceConfig{
			Rate:       cfg.Path.NICRate,
			TxQueueLen: cfg.Path.TxQueueLen,
		}, s.arena.Ingress(first))
		if spec.Host != 0 {
			s.hosts[spec.Host] = sharedHost{nic: nic, first: first}
		}
	}
	flow.Spec, flow.Bytes, flow.ID = &shared.spec, spec.Bytes, id
	if err := buildController(s, flow, nic, shared); err != nil {
		return nil, err
	}

	// Reverse path: receiver -> reverse channel -> sender. With a real
	// reverse link the ACKs join the shared queue; otherwise they ride the
	// shared ideal delay line matching the flow's route delay. Either way
	// ackDemux hands them to the sender by FlowID + generation — the flow
	// enters the table once both endpoints exist, before any data (and
	// hence any ACK) can be in flight.
	var ackPath netem.Receiver
	if s.rev != nil {
		ackPath = s.rev
	} else {
		rd := s.Topo.Reverse.Delay
		if rd == 0 {
			for i := first; i <= last; i++ {
				rd += s.Topo.Hops[i].Delay
			}
		}
		ackPath = s.ackLine(rd)
	}
	flow.Receiver.Init(&shared.tcp, id, gen, ackPath)
	flow.Sender.Init(&shared.tcp, id, gen, &flow.reno, nic)
	s.byID[id].f = flow
	if s.Rec != nil && !dynamic {
		// Figure 1's series: the Web100 SendStall count at every stall
		// (stalled). Static flows are built first, in ID order.
		s.stalls = append(s.stalls, s.Rec.Series(fmt.Sprintf("stalls/%d", id)))
		registerFlowGauges(s, flow)
	}

	// Workload: dynamic flows start at attach time (now), static flows at
	// their configured StartAt.
	if dynamic {
		flow.startWorkload()
	} else {
		eng.ScheduleArg(sim.At(spec.StartAt), startFlow, flow)
	}
	return flow, nil
}

// share returns this run's shared spec for spec, filling a parked (or new)
// entry and its connection config for the first flow that needs it. A run's
// flows come from a few specs at most, so a scan beats any map.
func (s *Scenario) share(spec *FlowSpec) *sharedSpec {
	want := *spec
	want.Bytes, want.StartAt = 0, 0
	for _, sh := range s.shared {
		if sameSpec(sh.spec, want) {
			return sh
		}
	}
	sh := take(&s.park.shared)
	sh.spec, sh.tcp, sh.reno = want, tcp.DefaultConfig(), cc.DefaultRenoConfig()
	sh.reno.FR = s.FR
	c := &sh.tcp
	c.Eng, c.Pool, c.FR, c.OnComplete = s.Eng, s.segs, s.FR, s.complete
	if s.Rec != nil {
		c.OnStall = s.stalled
	}
	if s.Cfg.TimerWheel {
		c.Wheel = s.wheel
	}
	if want.MSS > 0 {
		c.MSS = want.MSS
	}
	c.SACK = want.SACK
	if want.Alg == AlgStallWait || want.StallWait {
		c.Stall = tcp.StallWait
	}
	s.shared = append(s.shared, sh)
	return sh
}

// sameSpec is == on FlowSpecs with the float fields compared by bits: a NaN
// never equals itself, so each flow of a NaN spec would take an entry.
func sameSpec(x, y FlowSpec) bool {
	bits := func(f *FlowSpec) [2]uint64 {
		return [2]uint64{math.Float64bits(f.Gains.Kp), math.Float64bits(f.SetpointFraction)}
	}
	bx, by := bits(&x), bits(&y)
	x.Gains.Kp, x.SetpointFraction, y.Gains.Kp, y.SetpointFraction = 0, 0, 0, 0
	return bx == by && x == y
}

// stalled is a traced run's stall hook (tcp.Config.OnStall): it appends
// (now, SendStall) to a static flow's stalls/<id> series. Dynamic flows,
// whose IDs follow the static ones, record no series.
func (s *Scenario) stalled(snd *tcp.Sender) {
	if i := int(snd.Flow()) - 1; i < len(s.stalls) {
		s.stalls[i].Add(s.Eng.Now(), float64(snd.Stats().SendStall))
	}
}

// registerFlowGauges adds a static flow's sampled series to the recorder.
func registerFlowGauges(s *Scenario, flow *Flow) {
	eng, nic, mss := s.Eng, flow.NIC(), float64(flow.Sender.MSS())
	s.Rec.Gauge(fmt.Sprintf("cwnd_segs/%d", flow.ID), func() float64 {
		return float64(flow.Sender.Cwnd()) / mss
	})
	s.Rec.Gauge(fmt.Sprintf("ifq/%d", flow.ID), func() float64 {
		return float64(nic.Len())
	})
	s.Rec.Gauge(fmt.Sprintf("goodput_mbps/%d", flow.ID), func() float64 {
		st := flow.Sender.Snapshot(eng.Now())
		return float64(st.Throughput(eng.Now())) / 1e6
	})
}

// startFlow is a static flow's start event; its argument is the flow.
func startFlow(f any) { f.(*Flow).startWorkload() }

// startWorkload hands the flow's sender its data: Bytes at once and the end
// of the stream (the paper's bulk transfer), or, with no Bytes, a backlog
// the run's duration ends first.
func (f *Flow) startWorkload() {
	if f.Bytes > 0 {
		f.Sender.Supply(f.Bytes)
		f.Sender.Close()
		return
	}
	f.Sender.Supply(1 << 62)
}

// buildController initializes the flow's Reno on the shared spec's config
// with the slow-start policy the spec selects, wiring a (parked or new)
// restricted-slow-start controller to nic, the flow's NIC, for AlgRestricted.
func buildController(s *Scenario, flow *Flow, nic *host.Interface, shared *sharedSpec) error {
	spec := flow.Spec
	var ss cc.SlowStartPolicy // nil: Reno's standard slow-start
	switch spec.Alg {
	case AlgRestricted:
		// Flows sharing a host share the per-interface controller (the
		// process variable is the interface queue); the first flow's
		// gains and set point apply.
		h := s.hosts[spec.Host]
		rss := h.rss
		if rss == nil {
			rss = take(&s.park.rss)
			err := rss.Init(s.Eng, core.Config{
				Sensor:           nic,
				Gains:            spec.Gains,
				SetpointFraction: spec.SetpointFraction,
				Tick:             spec.Tick,
				AllowShrink:      spec.AllowShrink,
			})
			if err != nil {
				return err
			}
			if spec.Host != 0 {
				h.rss = rss
				s.hosts[spec.Host] = h
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
	flow.reno.Init(&shared.reno, ss, int32(flow.ID))
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

// add folds one flow's Web100 counters in.
func (t *Totals) add(st *web100.Live) {
	t.Stalls += st.SendStall
	t.CongSignals += st.CongSignals
	t.Timeouts += st.Timeouts
	t.Collapses += st.LocalCongCwnd
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
	// Rec exposes the recorder for figure generation; nil when traceless.
	Rec *trace.Recorder
}

// Run executes the scenario for its configured duration and summarizes the
// primary flow.
func (s *Scenario) Run() Result {
	if s.Rec != nil {
		// The run length and sample period are both known: pre-size every
		// gauge series so sampling never reallocates mid-run.
		s.Rec.ReserveSamples(int(s.Cfg.Duration/samplePeriod) + 1)
		s.Rec.Sample(samplePeriod)
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
	s.hopStats = extend(s.hopStats[:0], len(s.Topo.Hops))
	for hi := range s.hopStats {
		p := s.arena.Port(hi)
		q := p.QueueStats()
		hs := HopStats{
			Drops:       q.Dropped,
			MaxQueue:    q.MaxLen,
			AvgQueue:    p.AvgQueueLen(now),
			Utilization: p.Utilization(now),
		}
		hs.LossDrops, hs.Reordered, hs.Duplicated = s.arena.Faults(hi)
		routerDrops += q.Dropped
		injected += hs.LossDrops
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
	if s.rev != nil {
		res.ReverseDrops = s.rev.QueueStats().Dropped
	}
	if len(s.churn.records) > 0 {
		res.Flows = slices.Clip(s.churn.records)
	}
	res.FCT = s.churn.fctSummary()
	if f != nil {
		st := f.Sender.Snapshot(now)
		res.Alg = f.Spec.Alg
		res.Stats = st
		res.Throughput = st.Throughput(now)
		res.Stalls = st.SendStall
		res.NIC = f.NIC().Stats()
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
		// Dynamic flows contribute too: detached ones were folded into the
		// churn totals at teardown, live ones are read here.
		totals := s.churn.totals
		for j, fl := range s.Flows {
			fst := fl.Sender.Snapshot(now)
			tps[j] = fst.Throughput(now)
			stats[j] = fst
			totals.add(fl.Sender.Stats())
		}
		for _, fl := range s.churn.live {
			totals.add(fl.Sender.Stats())
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

// StallSeries returns the cumulative send-stall series of flow i of a traced
// run.
func (s *Scenario) StallSeries(i int) *trace.Series {
	return s.Rec.Series(fmt.Sprintf("stalls/%d", s.Flows[i].ID))
}
