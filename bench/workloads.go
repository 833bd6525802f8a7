package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"rsstcp/bench/layers"
	"rsstcp/internal/campaign"
	"rsstcp/internal/experiment"
	"rsstcp/internal/sim"
	"rsstcp/internal/unit"
)

// workload is one named set of inputs. gen makes the inputs from a seed;
// the simulator sees only what gen returns.
type workload struct {
	Name string
	Why  string
	// gen builds one repetition's inputs. scale divides simulated
	// durations (1 for measurement, 10 under -quick).
	gen func(seed uint64, scale int) repInput
}

// repInput is one repetition's generated input: either a sequence of
// scenario cases run back to back, or one campaign plan.
type repInput struct {
	cases []scenarioCase
	grid  *campaign.Grid
	reps  int // campaign replicates per cell
}

// scenarioCase is one scenario of a repetition. The window from ramp to
// cfg.Duration is timed; Build and the ramp are set-up.
type scenarioCase struct {
	cfg  experiment.Config
	ramp time.Duration
	// noDrain marks a population that cannot be run to completion after
	// the window (many_flows: 50k × 10 MB over 1 Gbps is 4000 simulated
	// seconds), so the segment pool cannot be balanced by teardown.
	noDrain bool
}

var workloads = []workload{
	{
		Name: "paper_path",
		Why:  "the paper's Section 4 testbed, one flow: shallow calendar, so sim, tcp per-ACK, host IFQ and the PID tick do the work",
		gen: func(seed uint64, scale int) repInput {
			var cs []scenarioCase
			for _, alg := range []experiment.Algorithm{experiment.AlgStandard, experiment.AlgRestricted} {
				cs = append(cs, scenarioCase{cfg: experiment.Config{
					Path:      experiment.PaperPath(),
					Flows:     []experiment.FlowSpec{{Alg: alg}},
					Duration:  25 * time.Second / time.Duration(scale),
					Seed:      seed,
					Traceless: true,
				}})
			}
			return repInput{cases: cs}
		},
	},
	{
		Name: "topo_mix",
		Why:  "RED parking lot, congested reverse link, 1% loss with SACK: netem does most of the work and tcp runs its loss-recovery side",
		gen: func(seed uint64, scale int) repInput {
			base := func() experiment.Config {
				return experiment.Config{
					Flows:     []experiment.FlowSpec{{Alg: experiment.AlgRestricted}},
					Duration:  25 * time.Second / time.Duration(scale),
					Seed:      seed,
					Traceless: true,
				}
			}
			lot := base()
			mustPreset(&lot, "parking-lot")
			for i := range lot.Topology.Hops {
				lot.Topology.Hops[i].Discipline = experiment.DiscRED
			}
			rev := base()
			mustPreset(&rev, "reverse-congested")
			lossy := base()
			lossy.Path = experiment.PaperPath()
			lossy.Path.Loss = 0.01
			lossy.Flows[0].SACK = true
			return repInput{cases: []scenarioCase{{cfg: lot}, {cfg: rev}, {cfg: lossy}}}
		},
	},
	{
		Name: "many_flows",
		Why:  "50k live flows, ~120 MB working set: calendar depth, timer wheel, FlowTable and arena layout dominate, not per-ACK arithmetic",
		gen: func(seed uint64, scale int) repInput {
			n := 50000 / scale
			ramp := time.Second
			return repInput{cases: []scenarioCase{{
				cfg: experiment.Config{
					Path: experiment.PathConfig{Bottleneck: unit.Gbps, TxQueueLen: 1000},
					Churn: &experiment.ChurnSpec{
						Arrivals: fmt.Sprintf("poisson:%d", 2*n),
						Size:     "fixed:10M",
						MaxLive:  n,
						Flow:     experiment.FlowSpec{Alg: experiment.AlgStandard},
					},
					Duration:    ramp + 2*time.Second,
					Seed:        seed,
					Traceless:   true,
					TimerWheel:  true,
					RetainFlows: -1,
				},
				ramp:    ramp,
				noDrain: true,
			}}}
		},
	},
	{
		Name: "churn",
		Why:  "0.8 load of Pareto transfers over Poisson arrivals: lifecycle draws, attach/detach, row recycling and timer cancellation do the work",
		gen: func(seed uint64, scale int) repInput {
			var cs []scenarioCase
			for _, alg := range []experiment.Algorithm{experiment.AlgStandard, experiment.AlgRestricted} {
				cs = append(cs, scenarioCase{cfg: experiment.Config{
					Path: experiment.PaperPath(),
					Churn: &experiment.ChurnSpec{
						Arrivals: "poisson:1",
						Load:     0.8,
						Size:     "pareto:1.2:4k:10M",
						Flow:     experiment.FlowSpec{Alg: alg},
					},
					Duration:    20 * time.Second / time.Duration(scale),
					Seed:        seed,
					Traceless:   true,
					RetainFlows: -1,
				}})
			}
			return repInput{cases: cs}
		},
	},
	{
		Name: "campaign_grid",
		Why:  "40960 runs of 50 ms: per-run Reset, metric extraction, fold and export weigh as much as the event loop; the only workload where campaign matters",
		gen: func(seed uint64, scale int) repInput {
			g := layers.CampaignGrid()
			g.BaseSeed = seed
			return repInput{grid: &g, reps: 640 / scale}
		},
	},
}

func mustPreset(cfg *experiment.Config, name string) {
	if err := experiment.ApplyPreset(cfg, name); err != nil {
		panic(err) // a stock preset name: failing is a bug in this file
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// digest is what a repetition must reproduce exactly whenever its seed
// repeats: the speed-independent face of the run.
type digest struct {
	Events      uint64 `json:"events"`
	GoodputBits int64  `json:"goodput_bits"`
	Stalls      int64  `json:"stalls"`
	Drops       int64  `json:"drops"`
	FlowsDone   int64  `json:"flows_done"`
	// Export is the SHA-256 of the campaign's JSON export (campaign_grid).
	Export string `json:"export,omitempty"`
}

func (d digest) String() string {
	s := fmt.Sprintf("events=%d goodput_bits=%d stalls=%d drops=%d flows_done=%d",
		d.Events, d.GoodputBits, d.Stalls, d.Drops, d.FlowsDone)
	if d.Export != "" {
		s += " export=" + d.Export[:16]
	}
	return s
}

// counts are the exact per-layer counters of one repetition, read from the
// packages' public stats after the timed window.
type counts struct {
	Events                uint64
	Processed, Cancelled  uint64 // engine lifetime, for the cancel share
	HighWater             int
	PoolCreated           uint64
	PoolReused            uint64
	LadderSorts           uint64
	LadderSprays          uint64
	WheelArmed            uint64
	WheelDirect           uint64
	WheelFlushes          uint64
	DataSegs, HopSegs     int64 // data segments sent; Σ route length × segments
	Drops, LossDrops      int64
	MaxQueue              int
	AvgQueueSum           float64
	Hops                  int
	RevDrops              int64
	Stalls                int64
	IFQHighWater          int
	Retrans, RTOs         int64
	Rows                  int
	GoodputMbpsSum        float64
	Ticks, Throttled      int64
	PoolGets, PoolRelease int64
	FlowsDone             int64
	FlowsRefused          int64
	Arrivals              int64
	FRTotal, FREvicted    uint64
	PhaseBuild            time.Duration
	PhaseRun, PhaseFold   time.Duration
	Export                time.Duration
	ReorderMax            int64
	// Ops counts, per layer driver (by its metric name), how many of the
	// driver's operations the timed windows performed: the weights of the
	// outside-in cost account.
	Ops map[string]float64
}

// repSample is the timing and memory face of one repetition — all the
// harness keeps of a timed repetition once its checks have passed.
type repSample struct {
	Setup, Wall time.Duration
	Events      uint64
	Runs        int
	Flows       int // flows carried: completed in the window or still attached
	SimSeconds  float64
	Allocs      uint64 // objects allocated inside the timed windows
	PreHeap     uint64 // live heap before set-up
	LiveHeap    uint64 // live heap after the rep, its state still referenced
	HeapAtEnd   uint64 // heap bytes when the last timed window closed
}

// repResult is what one repetition hands back.
type repResult struct {
	repSample
	Seed     uint64
	Digest   digest
	Counts   counts
	Failures []string
}

func (r *repResult) failf(format string, a ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, a...))
}

// harness carries what every repetition needs: the allocator reader and,
// in the traced pass, the span recorder.
type harness struct {
	heap *heapReader
	tr   *tracer
}

// runRep executes one repetition of in.
func (h *harness) runRep(in repInput, seed uint64) *repResult {
	if in.grid != nil {
		return h.campaignRep(in, seed)
	}
	return h.scenarioRep(in.cases, seed)
}

// scenarioRep builds and runs each case in turn. Only the windows between
// ramp and cfg.Duration are timed; Build and ramp are set-up; result
// extraction, checks and teardown sit outside both.
func (h *harness) scenarioRep(cases []scenarioCase, seed uint64) *repResult {
	res := &repResult{Seed: seed}
	res.PreHeap = h.heap.liveHeap()
	scens := make([]*experiment.Scenario, 0, len(cases))
	results := make([]experiment.Result, 0, len(cases))
	windowEvents := make([]uint64, 0, len(cases))
	for _, c := range cases {
		t0 := time.Now()
		sp := h.tr.begin("experiment.Build")
		s, err := experiment.Build(c.cfg)
		h.tr.end(sp)
		if err != nil {
			res.failf("build: %v", err)
			return res
		}
		if c.ramp > 0 {
			sp = h.tr.begin("ramp")
			s.Eng.RunUntil(sim.At(c.ramp))
			h.tr.end(sp)
		}
		res.Setup += time.Since(t0)

		e0 := s.Eng.Processed()
		a0, _, _ := h.heap.read()
		sp = h.tr.begin("Eng.RunUntil")
		h.tr.window(true)
		t1 := time.Now()
		s.Eng.RunUntil(sim.At(c.cfg.Duration))
		res.Wall += time.Since(t1)
		h.tr.window(false)
		h.tr.end(sp)
		a1, hb, _ := h.heap.read()
		res.Allocs += a1 - a0
		res.HeapAtEnd = hb
		window := s.Eng.Processed() - e0
		windowEvents = append(windowEvents, window)
		res.Events += window
		res.SimSeconds += (c.cfg.Duration - c.ramp).Seconds()
		res.Runs++

		sp = h.tr.begin("Scenario.ResultFor")
		r := s.ResultFor(0)
		h.tr.end(sp)
		scens = append(scens, s)
		results = append(results, r)
	}
	res.LiveHeap = h.heap.liveHeap()
	for i, s := range scens {
		res.Flows += len(s.Flows) + s.LiveFlows()
		if fct := results[i].FCT; fct != nil {
			res.Flows += int(fct.Count)
		}
		collect(res, s, results[i], windowEvents[i])
		checkScenario(res, s, results[i], cases[i])
	}
	runtime.KeepAlive(scens)
	res.Setup = h.steadySetup(res.Setup, func() {
		for _, c := range cases {
			experiment.Build(c.cfg) // built above without error
		}
	})
	k := &res.Counts
	k.Events = res.Events
	res.Digest.Events = res.Events
	res.Digest.Stalls = k.Stalls
	res.Digest.Drops = k.Drops + k.LossDrops + k.RevDrops
	res.Digest.FlowsDone = k.FlowsDone
	return res
}

// collect folds one finished scenario's public counters into the rep.
func collect(res *repResult, s *experiment.Scenario, r experiment.Result, windowEvents uint64) {
	k := &res.Counts
	ticksBefore := k.Ticks
	st := s.Eng.Stats()
	k.Processed += st.Processed
	k.Cancelled += st.Cancelled
	k.PoolCreated += st.Pool.Created
	k.PoolReused += st.Pool.Reused
	ss := s.Eng.SchedStats()
	k.LadderSorts += ss.Sorts
	k.LadderSprays += ss.Sprays
	k.HighWater = max(k.HighWater, st.HeapHighWater, ss.MaxSize)
	if ws, ok := s.WheelStats(); ok {
		k.WheelArmed += ws.Armed
		k.WheelDirect += ws.Direct
		k.WheelFlushes += ws.Flushes
	}

	nHops := len(s.Topo.Hops)
	span := func(rt experiment.Route) int {
		if rt.Hops > 0 {
			return rt.Hops
		}
		return nHops - rt.FirstHop
	}
	var segs, hopSegs, acks int64
	for i, f := range s.Flows {
		fs := r.FlowStats[i]
		segs += fs.DataSegsOut
		hopSegs += fs.DataSegsOut * int64(span(f.Spec.Route))
		acks += fs.SegsIn
		k.Retrans += fs.SegsRetrans
		if f.RSS != nil {
			k.Ticks += f.RSS.Ticks()
			k.Throttled += f.RSS.ThrottledTicks()
		}
	}
	for _, tp := range r.FlowThroughputs {
		res.Digest.GoodputBits += int64(tp)
	}
	for _, hs := range r.Hops {
		k.Drops += hs.Drops
		k.LossDrops += hs.LossDrops
		k.MaxQueue = max(k.MaxQueue, hs.MaxQueue)
		k.AvgQueueSum += hs.AvgQueue
	}
	k.Hops += len(r.Hops)
	k.RevDrops += r.ReverseDrops
	k.Stalls += r.Totals.Stalls
	k.IFQHighWater = max(k.IFQHighWater, r.NIC.MaxQueue)
	k.RTOs += r.Totals.Timeouts
	k.Rows = max(k.Rows, len(s.Flows)+r.FlowsActive)
	k.GoodputMbpsSum += float64(r.Throughput) / 1e6
	if r.FCT != nil {
		k.FlowsDone += r.FCT.Count
		k.Retrans += r.FCT.Retrans
	}
	k.FlowsRefused += r.FlowsRefused
	k.FRTotal += s.FR.Total()
	k.FREvicted += s.FR.Evicted()
	k.DataSegs += segs
	k.HopSegs += hopSegs

	// The cost account's weights. A churn population exposes no per-flow
	// segment counters once detached; its segments are estimated from the
	// private pool, which issues one segment per data segment and one per
	// ACK, an ACK for every second data segment.
	var arrivals, attached float64
	if ch := s.Cfg.Churn; ch != nil {
		gets, _ := s.SegCounters()
		dyn := int64(float64(gets) / 1.5)
		segs += dyn
		hopSegs += dyn * int64(span(ch.Flow.Route))
		acks += dyn / 2
		attached = float64(r.FlowsActive)
		if r.FCT != nil {
			attached += float64(r.FCT.Count)
		}
		arrivals = attached + float64(r.FlowsRefused)
	}
	lossy, red := false, false
	for _, hop := range s.Topo.Hops {
		lossy = lossy || hop.Loss > 0 || hop.ReorderP > 0 || hop.DuplicateP > 0
		red = red || hop.Discipline == experiment.DiscRED
	}
	// Counters cover the whole run; only the share of its events that fell
	// inside the timed window is on the account.
	share := float64(windowEvents) / float64(st.Processed)
	add := func(driver string, n float64) {
		if k.Ops == nil {
			k.Ops = map[string]float64{}
		}
		k.Ops[driver] += share * n
	}
	if lossy {
		add("tcp.ack_sack_loss_ns", float64(segs))
		add("netem.inject_ns", float64(segs))
	} else {
		add("tcp.ack_ns", float64(segs))
	}
	add("host.ifq_send_ns", float64(segs))
	if red {
		add("netem.arena_3hop_red_ns", float64(hopSegs)/3) // the driver's op is three hops
	} else {
		add("netem.arena_1hop_ns", float64(hopSegs))
	}
	if s.Topo.Reverse.Rate > 0 {
		add("netem.link_ns", float64(acks))
	}
	add("core.pid_tick_ns", float64(k.Ticks-ticksBefore))
	add("lifecycle.arrival_draw_ns", arrivals)
	add("lifecycle.size_draw_ns", attached)
	add("experiment.attach_detach_ns", attached)
}

// campaignRep compiles the grid into a plan (set-up), then executes it on
// one worker and exports JSON and CSV (timed).
func (h *harness) campaignRep(in repInput, seed uint64) *repResult {
	res := &repResult{Seed: seed}
	res.PreHeap = h.heap.liveHeap()

	t0 := time.Now()
	sp := h.tr.begin("campaign.Plan")
	p := in.grid.Plan()
	p.Replicates = in.reps
	err := p.Validate()
	cells := p.Cells()
	h.tr.end(sp)
	res.Setup = time.Since(t0)
	if err != nil {
		res.failf("plan: %v", err)
		return res
	}

	self := campaign.NewSelfMetrics()
	opts := campaign.Options{Workers: 1, Self: self}
	if h.tr != nil {
		// Per-run progress is how the reorder buffer's depth is seen from
		// outside; it costs a callback per run, so only the traced pass
		// asks for it.
		opts.ProgressEvery = 1
		opts.Progress = func(int, int) {
			res.Counts.ReorderMax = max(res.Counts.ReorderMax, self.ReorderDepth())
		}
	}
	var jsonBuf, csvBuf bytes.Buffer
	jsonBuf.Grow(256 << 10)
	csvBuf.Grow(64 << 10)
	a0, _, _ := h.heap.read()
	h.tr.window(true)
	t1 := time.Now()
	sp = h.tr.begin("campaign.ExecutePlan")
	rep, err := campaign.ExecutePlan(p, opts)
	h.tr.end(sp)
	if err != nil {
		res.failf("execute: %v", err)
		return res
	}
	tx := time.Now()
	sp = h.tr.begin("Report.WriteJSON")
	err = rep.WriteJSON(&jsonBuf)
	h.tr.end(sp)
	if err == nil {
		sp = h.tr.begin("Report.WriteCSV")
		err = rep.WriteCSV(&csvBuf)
		h.tr.end(sp)
	}
	res.Wall = time.Since(t1)
	h.tr.window(false)
	res.Counts.Export = time.Since(tx)
	a1, hb, _ := h.heap.read()
	if err != nil {
		res.failf("export: %v", err)
		return res
	}
	res.Allocs = a1 - a0
	res.HeapAtEnd = hb
	res.Events = uint64(self.SimEvents.Value())
	res.Runs = p.Runs()
	res.Flows = p.Runs() // every cell is a one-flow scenario
	res.SimSeconds = float64(p.Runs()) * p.Duration.Seconds()
	sum := sha256.Sum256(jsonBuf.Bytes())
	// The export buffers are dead from here on; what the collection below
	// leaves is the plan's cells and the report.
	res.LiveHeap = h.heap.liveHeap()
	runtime.KeepAlive(rep)
	runtime.KeepAlive(cells)

	k := &res.Counts
	k.Events = res.Events
	k.LadderSorts = uint64(self.SchedSorts.Value())
	k.LadderSprays = uint64(self.SchedSprays.Value())
	k.HighWater = int(self.SchedMaxSize())
	k.WheelArmed = uint64(self.WheelArmed.Value())
	k.WheelDirect = uint64(self.WheelDirect.Value())
	k.WheelFlushes = uint64(self.WheelFlushes.Value())
	k.PhaseBuild, k.PhaseRun, k.PhaseFold = self.Phases()
	res.Digest = digest{Events: res.Events, Export: hex.EncodeToString(sum[:])}
	checkCampaign(res, rep)
	res.Setup = h.steadySetup(res.Setup, func() {
		p := in.grid.Plan()
		p.Replicates = in.reps
		p.Validate()
		runtime.KeepAlive(p.Cells())
	})
	return res
}

// A set-up cheaper than cheapSetup is a sub-millisecond timing, too noisy
// to compare between runs from one sample per repetition. steadySetup
// repeats it after the repetition is over (so the extra garbage stays out
// of the timed window) and returns the median of setupRepeats timings.
const (
	cheapSetup   = 10 * time.Millisecond
	setupRepeats = 5
)

func (h *harness) steadySetup(first time.Duration, again func()) time.Duration {
	if first >= cheapSetup {
		return first
	}
	sp := h.tr.begin("setup.repeat")
	xs := []float64{first.Seconds()}
	for len(xs) < setupRepeats {
		t0 := time.Now()
		again()
		xs = append(xs, time.Since(t0).Seconds())
	}
	h.tr.end(sp)
	return time.Duration(median(xs) * float64(time.Second))
}
