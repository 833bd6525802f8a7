package experiment

import (
	"cmp"
	"fmt"
	"math"
	"time"

	"rsstcp/internal/lifecycle"
	"rsstcp/internal/packet"
	"rsstcp/internal/sim"
	"rsstcp/internal/stats"
	"rsstcp/internal/tcp"
	"rsstcp/internal/telemetry"
)

// ChurnSpec describes a dynamic flow population: an arrival process births
// flows from a template, each transfers a size drawn from a distribution
// and detaches on completion. Arrival gaps and sizes come from independent
// splitmix-derived streams of the run seed, so a churn run is a pure
// function of (Config, Seed) at any worker count.
type ChurnSpec struct {
	// Arrivals is a lifecycle.ParseSource spec — "poisson:100",
	// "mmpp:20:200:500ms" or "web:5:8:2s" (default "poisson:100").
	Arrivals string
	// Load, when > 0, overrides the spec's arrival rate so the offered
	// load — rate × E[size] — equals this fraction of the template
	// route's bottleneck rate. The rate it gives, and the source's slowest
	// and fastest gap rates scaled with it, must pass lifecycle.CheckRate.
	Load float64 `json:",omitempty"`
	// Size is a lifecycle.ParseSizeDist spec — "fixed:64k", "exp:100k",
	// "pareto:1.3:10k:10M", "lognorm:100k:1.5" (default "exp:100k").
	Size string `json:",omitempty"`
	// Flow is the template each arrival instantiates; its Bytes and StartAt
	// must be 0 (an arrival draws its size from Size and starts on arrival).
	Flow FlowSpec
	// MaxLive caps concurrently live dynamic flows; arrivals beyond the
	// cap are refused and counted in Result.FlowsRefused (0 = unlimited).
	MaxLive int `json:",omitempty"`
}

// check is Validate's churn part on the config's path r; the error starts
// with the field name. It parses the specs, defaults included, applies Load's
// rate and hands them to src and dist.
func (c *ChurnSpec) check(r *routes, src *lifecycle.FlowSource, dist *lifecycle.SizeDist) error {
	if !(c.Load >= 0) || math.IsInf(c.Load, 1) {
		return fmt.Errorf("Churn.Load %v is not a finite number ≥ 0", c.Load)
	}
	if err := neg("Churn.MaxLive", c.MaxLive); err != nil {
		return err
	}
	d := c.withDefaults()
	arrivals, aerr := lifecycle.ParseSource(d.Arrivals)
	sizes, serr := lifecycle.ParseSizeDist(d.Size)
	if err := cmp.Or(aerr, serr); err != nil {
		return fmt.Errorf("Churn: %v", err)
	}
	first, last, err := r.enter(&c.Flow)
	if err != nil {
		return fmt.Errorf("Churn.Flow.%v", err)
	}
	if c.Flow.Bytes != 0 {
		return fmt.Errorf("Churn.Flow.Bytes %d is not 0: each arrival draws its size from Churn.Size", c.Flow.Bytes)
	}
	if c.Flow.StartAt != 0 {
		return fmt.Errorf("Churn.Flow.StartAt %v is not 0: each arrival starts when it arrives", c.Flow.StartAt)
	}
	if c.Load > 0 {
		// A finite spec can still have no usable mean (a Pareto tail index
		// of 1e300 yields NaN), and a slow phase can scale to 0: check the
		// rates the sources' constructors would otherwise panic on.
		// Rescaling multiplies every gap rate of the source by the same
		// factor.
		rate := c.Load * r.bottleneck(first, last).BytesPerSecond() / sizes.Mean()
		lo, hi := arrivals.Span()
		scale := rate / arrivals.Rate()
		if err := cmp.Or(lifecycle.CheckRate(rate), lifecycle.CheckRate(lo*scale), lifecycle.CheckRate(hi*scale)); err != nil {
			return fmt.Errorf("Churn.Load %g over Churn.Size %q gives an unusable arrival rate: %v", c.Load, d.Size, err)
		}
		if src != nil {
			arrivals = arrivals.WithRate(rate)
		}
	}
	if src != nil {
		*src, *dist = arrivals, sizes
	}
	return nil
}

func (c ChurnSpec) withDefaults() ChurnSpec {
	if c.Arrivals == "" {
		c.Arrivals = "poisson:100"
	}
	if c.Size == "" {
		c.Size = "exp:100k"
	}
	if c.Flow.Alg == "" {
		c.Flow.Alg = AlgStandard
	}
	return c
}

// FlowRecord is one completed dynamic flow: birth and completion times,
// bytes moved, retransmissions, and the completion-time figures derived
// from them. Slowdown is the flow's completion time divided by its ideal
// transfer time (route propagation plus serialization at the route's
// bottleneck rate) — 1.0 is a perfect network. Class buckets the size for
// per-class metrics: 0 below 100 kB, 1 below 1 MB, 2 at or above.
type FlowRecord struct {
	ID         packet.FlowID
	Alg        Algorithm
	Start, End time.Duration
	Bytes      int64
	Retrans    int64
	Slowdown   float64
	Class      int
}

// FCT returns the flow's completion time.
func (r FlowRecord) FCT() time.Duration { return r.End - r.Start }

// Size-class boundaries for FlowRecord.Class.
const (
	classMediumBytes = 100_000   // Class 1 at or above
	classLargeBytes  = 1_000_000 // Class 2 at or above
)

// NumSizeClasses is the number of FlowRecord.Class buckets.
const NumSizeClasses = 3

// FCTSummary is the streaming digest of a run's completed dynamic flows:
// completion-time moments and quantiles in seconds, mean slowdown overall
// and per size class, and byte/retransmission totals. It is folded one
// completion at a time (quantiles exact through the first 4096 completions,
// deterministic P² estimates beyond), so it covers the full population even
// when Config.RetainFlows drops the per-flow records. Every field is finite
// whenever the summary exists — a run with no completions has a nil
// Result.FCT instead of NaN moments.
type FCTSummary struct {
	// Count is the number of completed dynamic flows.
	Count int64 `json:"count"`
	// Bytes and Retrans total the completed flows' transfer sizes and
	// retransmitted segments.
	Bytes   int64 `json:"bytes"`
	Retrans int64 `json:"retrans"`
	// Completion-time figures, in seconds.
	Mean float64 `json:"mean_s"`
	Min  float64 `json:"min_s"`
	Max  float64 `json:"max_s"`
	P50  float64 `json:"p50_s"`
	P90  float64 `json:"p90_s"`
	P99  float64 `json:"p99_s"`
	// SlowdownMean is the mean FCT over ideal transfer time (1.0 is a
	// perfect network).
	SlowdownMean float64 `json:"slowdown_mean"`
	// Class splits the population by FlowRecord.Class (mice/medium/large).
	Class [NumSizeClasses]FCTClass `json:"class"`
}

// FCTClass is one size class's share of an FCTSummary. SlowdownMean is zero
// (not NaN) for an empty class; Count disambiguates.
type FCTClass struct {
	Count        int64   `json:"count"`
	SlowdownMean float64 `json:"slowdown_mean"`
}

func sizeClass(bytes int64) int {
	switch {
	case bytes >= classLargeBytes:
		return 2
	case bytes >= classMediumBytes:
		return 1
	default:
		return 0
	}
}

// churnState is the scenario's dynamic-flow machinery.
type churnState struct {
	src     lifecycle.FlowSource
	dist    lifecycle.SizeDist
	sizeRNG *sim.RNG
	tmpl    FlowSpec
	live    []*Flow
	records []FlowRecord
	// totals accumulates counters folded out of detached flows, so
	// Result.Totals covers flows that no longer exist.
	totals     Totals
	bytesAcked int64 // goodput folded out of detached flows
	refused    int64
	nextID     packet.FlowID
	stopped    bool // in nextID's word
	// freeIDs holds FlowIDs of detached dynamic flows for reuse, so the
	// demux route tables stay bounded by the peak live population instead
	// of growing with total churn. Safe because every incarnation of an ID
	// carries its own generation (see demux).
	freeIDs []packet.FlowID
	// Ideal-transfer-time model for Slowdown: route propagation (forward
	// + reverse) plus serialization at the route's slowest hop.
	baseRTT time.Duration
	perByte float64 // seconds per byte at the route's bottleneck

	// Streaming completion digest (Result.FCT): running sums in completion
	// order plus an exact-then-P² quantile accumulator, so churn runs need
	// not retain per-flow records to report completion-time figures.
	fctBytes   int64
	fctRetrans int64
	fctSum     float64 // Σ FCT seconds, completion order
	fct        stats.Accumulator
	fctP99     stats.P2
	sdSum      float64 // Σ slowdown, completion order
	classN     [NumSizeClasses]int64
	classSD    [NumSizeClasses]float64
}

// foldRecord streams one completed flow into the digest.
func (c *churnState) foldRecord(rec FlowRecord) {
	if c.fct.N() == 0 {
		c.fctP99 = stats.NewP2(0.99)
	}
	fs := rec.FCT().Seconds()
	c.fctSum += fs
	c.fct.Add(fs)
	c.fctP99.Add(fs)
	c.fctBytes += rec.Bytes
	c.fctRetrans += rec.Retrans
	c.sdSum += rec.Slowdown
	c.classN[rec.Class]++
	c.classSD[rec.Class] += rec.Slowdown
}

// fctSummary renders the digest, nil when nothing completed.
func (c *churnState) fctSummary() *FCTSummary {
	n := c.fct.N()
	if n == 0 {
		return nil
	}
	sum := c.fct.Summary()
	f := &FCTSummary{
		Count:        int64(n),
		Bytes:        c.fctBytes,
		Retrans:      c.fctRetrans,
		Mean:         c.fctSum / float64(n),
		Min:          sum.Min,
		Max:          sum.Max,
		P50:          sum.P50,
		P90:          sum.P90,
		SlowdownMean: c.sdSum / float64(n),
	}
	if p, ok := c.fct.Percentile(0.99); ok {
		f.P99 = p
	} else {
		f.P99 = c.fctP99.Quantile()
	}
	for i := range f.Class {
		f.Class[i].Count = c.classN[i]
		if c.classN[i] > 0 {
			f.Class[i].SlowdownMean = c.classSD[i] / float64(c.classN[i])
		}
	}
	return f
}

// SummarizeFCT folds completed-flow records, in completion order, into the
// digest a run of exactly those completions reports as Result.FCT.
func SummarizeFCT(recs []FlowRecord) *FCTSummary {
	var c churnState
	for _, rec := range recs {
		c.foldRecord(rec)
	}
	return c.fctSummary()
}

// reset clears per-run state but keeps backing arrays warm for the next
// replicate (Scenario.Reset has already parked the live flows).
func (c *churnState) reset() {
	c.src, c.dist, c.sizeRNG = nil, nil, nil
	c.tmpl = FlowSpec{}
	for i := range c.live {
		c.live[i] = nil
	}
	c.live = c.live[:0]
	c.records = c.records[:0]
	c.totals = Totals{}
	c.bytesAcked, c.refused, c.nextID = 0, 0, 0
	c.freeIDs = c.freeIDs[:0]
	c.baseRTT, c.perByte = 0, 0
	c.stopped = false
	c.fctBytes, c.fctRetrans, c.fctSum, c.sdSum = 0, 0, 0, 0
	c.fct.Reset()
	c.fctP99 = stats.P2{}
	c.classN = [NumSizeClasses]int64{}
	c.classSD = [NumSizeClasses]float64{}
}

// initChurn starts the arrival process of the (validated) churn spec on the
// freshly built scenario.
func (s *Scenario) initChurn() {
	cfg := &s.Cfg
	s.churn.tmpl = cfg.Churn.Flow
	first, last, _ := s.churn.tmpl.Route.span(len(s.Topo.Hops))
	// Ideal-time model: the slowest hop on the template's route bounds the
	// rate; propagation is the route's forward delay plus the reverse
	// delay (symmetric when unset).
	var fwd time.Duration
	for _, h := range s.Topo.Hops[first : last+1] {
		fwd += h.Delay
	}
	s.churn.baseRTT = fwd + cmp.Or(s.Topo.Reverse.Delay, fwd)
	s.churn.perByte = 1 / (&routes{hops: s.Topo.Hops}).bottleneck(first, last).BytesPerSecond()

	s.churn.sizeRNG = sim.NewRNG(lifecycle.StreamSeed(cfg.Seed, lifecycle.SaltSizes))
	// The source Config.validate parsed, Load's rate applied.
	s.churn.src.Start(s.Eng, sim.NewRNG(lifecycle.StreamSeed(cfg.Seed, lifecycle.SaltArrivals)), s.launchChurnFlow)
}

// launchChurnFlow is the arrival callback: draw a size, attach a flow.
func (s *Scenario) launchChurnFlow() {
	if s.churn.stopped {
		return
	}
	if maxLive := s.Cfg.Churn.MaxLive; maxLive > 0 && len(s.churn.live) >= maxLive {
		s.churn.refused++
		return
	}
	spec := s.churn.tmpl
	spec.Bytes = s.churn.dist.Sample(s.churn.sizeRNG)
	s.attach(spec)
}

// AttachFlow binds a new dynamic flow to the warm engine mid-run: a
// sender/receiver pair on the spec's route — a parked bundle re-initialized
// when there is one, so steady turnover allocates nothing — workload started
// immediately. Flows with a positive Bytes run to byte-completion, record a
// FlowRecord and detach themselves, releasing every timer, queue slot and
// pooled segment; unbounded or on/off flows live until DetachFlow. The flow
// does not join Scenario.Flows — static per-flow results and gauges cover
// only the configured flow list. The returned *Flow is valid until the flow
// completes or is detached: after that the bundle belongs to the store and
// then to a later arrival (as Reset invalidates Scenario.Flows). A spec that
// Config.Validate would refuse in Flows — a route off the built path or into
// another hop than its host's flows enter at included — is refused here,
// with one line that names the field.
func (s *Scenario) AttachFlow(spec FlowSpec) (*Flow, error) {
	r := routes{n: len(s.Topo.Hops)}
	if h, ok := s.hosts[spec.Host]; ok {
		r.hosts = map[int]int{spec.Host: h.first}
	}
	if _, _, err := r.enter(&spec); err != nil {
		return nil, fmt.Errorf("experiment: AttachFlow: FlowSpec.%v", err)
	}
	return s.attach(spec), nil
}

// attach is AttachFlow on a checked spec: churn arrivals instantiate the
// template Validate checked, so an arrival pays for no second check.
func (s *Scenario) attach(spec FlowSpec) *Flow {
	// Recycle a detached flow's ID when one is free — the route tables then
	// stay sized to the peak live population.
	// buildFlow gives the incarnation a fresh generation, so stray
	// segments of the ID's previous owner cannot reach this flow.
	id := s.churn.nextID
	fromFree := false
	if n := len(s.churn.freeIDs); n > 0 {
		id, fromFree = s.churn.freeIDs[n-1], true
		s.churn.freeIDs = s.churn.freeIDs[:n-1]
	}
	f := buildFlow(s, &spec, id, true)
	if !fromFree {
		s.churn.nextID++
	}
	f.liveIdx = int32(len(s.churn.live))
	s.churn.live = append(s.churn.live, f)
	s.aggValid = false
	s.FR.Record(s.Eng.Now(), telemetry.KindFlowStart, int32(id), -1,
		spec.Bytes, int64(len(s.churn.live)))
	return f
}

// completeChurnFlow is every sender's completion hook (tcp.Config.OnComplete):
// it records a finished dynamic flow and tears it down. A static flow's
// completion needs nothing: its Result entry describes it.
func (s *Scenario) completeChurnFlow(snd *tcp.Sender) {
	f := s.byID[snd.Flow()].f
	if f.liveIdx < 0 {
		return
	}
	now := s.Eng.Now()
	st := f.Sender.Stats()
	fct := now.Sub(st.StartTime)
	ideal := s.churn.baseRTT.Seconds() + float64(f.Bytes)*s.churn.perByte
	rec := FlowRecord{
		ID:      f.ID,
		Alg:     f.Spec.Alg,
		Start:   st.StartTime.Duration(),
		End:     now.Duration(),
		Bytes:   f.Bytes,
		Retrans: st.SegsRetrans,
		Class:   sizeClass(f.Bytes),
	}
	if ideal > 0 {
		rec.Slowdown = fct.Seconds() / ideal
	}
	s.churn.foldRecord(rec)
	if cap := s.Cfg.RetainFlows; cap == 0 || (cap > 0 && len(s.churn.records) < cap) {
		s.churn.records = append(s.churn.records, rec)
	}
	s.FR.Record(now, telemetry.KindFlowComplete, int32(f.ID), -1,
		f.Bytes, int64(fct))
	s.detach(f, true)
}

// Bounds on what detach parks. Both are fixed by construction: LIFO reuse
// sooner or later hands every bundle an elephant, and an unbounded store of
// elephant-sized record lists nearly doubled a churn run's live heap.
const (
	// parkedRecordCap is the largest sent-record list (in records, 24 bytes
	// each) a parked sender keeps.
	parkedRecordCap = 64
	// parkedFloor is how many bundles stay parked however small the live
	// population is; above it the store holds as many as are live, so a
	// population that falls and rises again is rebuilt from its own
	// bundles. Without the floor a handful of short flows arriving in
	// batches finds the store empty every time.
	parkedFloor = 16
)

// DetachFlow releases a flow's hold on the engine: the RTO and
// delayed-ACK timers are cancelled, an on/off workload's toggle and pump
// entries are cancelled, a private RSS controller's ticker stops, and the
// demux routes are cleared so stray in-flight segments are released back
// to the pool on arrival. A dynamic flow's counters fold into the churn
// totals and its bundle is parked for a later arrival (see detach), which
// ends the life of f as a handle. Detaching a static (configured) flow stops
// it without folding or parking, so its Result entry still reads correctly,
// and is idempotent.
func (s *Scenario) DetachFlow(f *Flow) {
	if s.byID[f.ID].f == f {
		s.detach(f, false)
	}
}

// detach tears an attached flow down and parks a dynamic flow's whole
// bundle — the Flow with its sender, receiver, controller, counters and own
// NIC — and its private RSS controller. Two cases keep the bundle out of the
// store. One that is not reusable yet — its NIC still drains segments or
// serves a shared host, or its sender's resume waker is still registered —
// waits in parked.draining. And when completing (the call comes from the
// sender's completion hook, inside its Receive) the bundle is held back one
// completion, see parked.held. What is parked is bounded by parkedRecordCap
// and by max(parkedFloor, live) components of each kind.
func (s *Scenario) detach(f *Flow, completing bool) {
	dynamic := f.liveIdx >= 0
	if dynamic {
		st := f.Sender.Stats()
		s.churn.totals.add(st)
		s.churn.bytesAcked += st.ThruOctetsAcked

		last := int32(len(s.churn.live) - 1)
		s.churn.live[f.liveIdx] = s.churn.live[last]
		s.churn.live[f.liveIdx].liveIdx = f.liveIdx
		s.churn.live[last] = nil
		s.churn.live = s.churn.live[:last]
		f.liveIdx = -1
	}
	f.Sender.Stop()
	f.Receiver.Stop()
	if dynamic {
		// The sender keeps its Web100 counters (already folded above)
		// but its window accessors go quiet.
		f.Sender.Retire()
	}
	if f.RSS != nil && f.Spec.Host == 0 {
		f.RSS.Stop()
	}
	s.byID[f.ID].f = nil
	s.aggValid = false
	if !dynamic {
		return
	}
	s.churn.freeIDs = append(s.churn.freeIDs, f.ID)
	if f.RSS != nil && f.Spec.Host == 0 {
		s.park.rss = append(s.park.rss, f.RSS)
	}
	f.Sender.ShedRecords(parkedRecordCap)
	switch {
	case !reusable(f):
		s.park.draining = append(s.park.draining, f)
	case completing:
		if f, s.park.held = s.park.held, f; f != nil {
			s.park.flows = append(s.park.flows, f)
		}
	default:
		s.park.flows = append(s.park.flows, f)
	}
	limit := max(parkedFloor, len(s.churn.live))
	trim(&s.park.flows, limit)
	trim(&s.park.rss, limit)
}

// StopChurn halts the arrival process: no further flows are born. Live
// flows keep running; with finite sizes, letting the engine run on drains
// them to completion — the leak gates use exactly that.
func (s *Scenario) StopChurn() {
	s.churn.stopped = true
	if s.churn.src != nil {
		s.churn.src.Stop()
	}
}

// LiveFlows reports how many dynamic flows are currently attached.
func (s *Scenario) LiveFlows() int { return len(s.churn.live) }

// SegCounters exposes the scenario-private segment pool's cumulative
// get/release counters; outside a callback they must balance, which the
// flow-leak gates assert after churn runs.
func (s *Scenario) SegCounters() (gets, releases int64) { return s.segs.Counters() }

// churnBytesAcked totals goodput over the dynamic population: bytes folded
// out of detached flows plus live flows' acknowledged bytes.
func (s *Scenario) churnBytesAcked(now sim.Time) int64 {
	total := s.churn.bytesAcked
	for _, f := range s.churn.live {
		total += f.Sender.Stats().ThruOctetsAcked
	}
	return total
}
