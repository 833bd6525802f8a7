package campaign

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"rsstcp/internal/experiment"
	"rsstcp/internal/sim"
	"rsstcp/internal/stats"
	"rsstcp/internal/web100"
)

// Options tunes campaign execution. The zero value runs on GOMAXPROCS
// workers, streams aggregation (no retained replicates), and reports no
// progress.
type Options struct {
	// Workers bounds the number of concurrent simulations (0 =
	// GOMAXPROCS). Worker count never changes results, only wall time.
	Workers int
	// Progress, when non-nil, receives completion updates. Calls arrive
	// from the collector in canonical run order — no locking, no
	// scheduling nondeterminism — and are coarsened by ProgressEvery.
	Progress func(done, total int)
	// ProgressEvery delivers Progress at most once per that many completed
	// runs; the final completion always reports. Zero picks a scale-aware
	// default (~200 updates per campaign) so a million-run sweep is not
	// serialized through its progress callback; 1 restores per-replicate
	// delivery.
	ProgressEvery int
	// RetainRuns keeps every raw Replicate on its ReportCell. Off (the
	// default), each finished replicate is folded into its cell's
	// streaming accumulators and dropped, so peak memory is governed by
	// the cell count, not the run count.
	RetainRuns bool
	// ExportWeb100 attaches every flow's full Web100 snapshot to each
	// Replicate (the "web100" block of retained-run JSON exports). Off by
	// default: byte-pinned exports stay identical.
	ExportWeb100 bool
	// Self, when non-nil, receives live self-observation updates (runs/sec,
	// events/sec, reorder depth, phase wall times) as the campaign executes.
	Self *SelfMetrics
	// AnomalySink, when non-nil, receives the flight-recorder JSONL of
	// every anomalous replicate, the moment the run finishes and before the
	// worker reuses its scenario. It is called concurrently from workers;
	// for a fixed plan the set of (cellKey, replicate) calls and each call's
	// bytes are identical at any worker count — only the call order varies.
	AnomalySink func(cellKey string, replicate int, events []byte)
}

// anomalous flags the failure modes worth a timeline: a transfer that hit a
// retransmission timeout, or one that moved no data at all.
func anomalous(r Run) bool {
	return r.Timeouts > 0 || r.ThroughputBps == 0
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return DefaultWorkers()
}

// progressStride resolves ProgressEvery against the campaign size.
func (o Options) progressStride(total int) int {
	if o.ProgressEvery > 0 {
		return o.ProgressEvery
	}
	if s := total / 200; s > 1 {
		return s
	}
	return 1
}

// DefaultWorkers is the pool size used when Options.Workers is zero.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Run is one replicate's stock scalar record. Throughput and event counters
// are summed over the cell's flows; queue drops and utilization are
// scenario-global. Every replicate carries these regardless of the plan's
// metric selection, so raw exports stay self-describing.
type Run struct {
	Replicate int    `json:"replicate"`
	Seed      uint64 `json:"seed"`
	// ThroughputBps is the aggregate goodput over all flows, bits/s.
	ThroughputBps float64 `json:"throughput_bps"`
	Stalls        int64   `json:"stalls"`
	CongSignals   int64   `json:"cong_signals"`
	Timeouts      int64   `json:"timeouts"`
	RouterDrops   int64   `json:"router_drops"`
	InjectedDrops int64   `json:"injected_drops"`
	Utilization   float64 `json:"utilization"`
	// RevDrops counts ACKs refused by a real reverse channel's queue; it is
	// omitempty (and Run stays comparable) so ideal-reverse exports are
	// byte-identical.
	RevDrops int64 `json:"rev_drops,omitempty"`
}

// Replicate is one finished run of a plan cell: the stock scalar record plus
// the plan's metric values, in plan-metric order.
type Replicate struct {
	Run
	// HopDrops lists per-hop queue refusals in forward order, populated
	// only for multi-hop topologies (a dumbbell's single figure is already
	// router_drops), so dumbbell exports are unchanged.
	HopDrops []int64 `json:"hop_drops,omitempty"`
	// Values holds one extracted value per plan metric. Values are
	// NaN-tolerant on the wire: a metric that yields NaN (degenerate
	// cells) serializes as JSON null instead of breaking the export.
	Values []stats.JSONFloat `json:"values"`
	// Web100 carries every flow's full instrument-set snapshot in flow
	// order, populated only under Options.ExportWeb100.
	Web100 []web100.Export `json:"web100,omitempty"`
}

// runContext is one worker's reusable simulation state. The first replicate
// builds a scenario; every later one resets it in place, which recycles the
// previous replicate's whole testbed (experiment.Scenario.Reset): from a
// worker's second replicate on, the testbed costs no allocation and runs on
// queues already grown. A failed Reset discards the context, parked parts
// included.
type runContext struct {
	s *experiment.Scenario
	// res is the last run's Result, kept here so Extract(&res) does not escape.
	res experiment.Result
	// Last-seen scheduler/wheel counter snapshots: the engine and wheel
	// survive Reset with lifetime counters, so telemetry deltas need the
	// previous reading.
	lastSched sim.SchedStats
	lastWheel sim.WheelStats
	// digest caches keyDigest(digestKey) for DeriveSeed's per-replicate mix.
	digestKey string
	digest    uint64
}

// execEnv is the per-campaign execution context shared by every worker:
// the plan, the resolved options, and the self-metrics instrument set.
type execEnv struct {
	p     Plan
	cells []PlanCell
	opts  Options
	self  *SelfMetrics
}

// spanResult is what a worker hands the collector: the replicates of one
// dispatched span, runs [lo, lo+len(reps)) in canonical order. err is the
// failure of run lo+len(reps), which ended the span early.
type spanResult struct {
	lo   int
	reps []Replicate
	wall []time.Duration // per-run build+run wall time, for the cell cost account
	err  error
}

// runSpan runs the replicates [lo, hi) back to back on the worker's context.
// The span is the unit of everything that is not simulation: one result
// message, one backing array each for every replicate's Values and HopDrops,
// one update of the shared self-metrics — a 50 ms replicate is a few
// microseconds of events, and a channel hand-off per run cost as much again.
func (rc *runContext) runSpan(env *execEnv, lo, hi int) spanResult {
	n, nm, reps := hi-lo, len(env.p.Metrics), env.p.Replicates
	sp := spanResult{lo: lo, reps: make([]Replicate, n), wall: make([]time.Duration, n)}
	values := make([]stats.JSONFloat, n*nm)
	var hopDrops []int64
	var build, run time.Duration
	var ran, events int64
	for i := range sp.reps {
		g := lo + i
		sp.reps[i].Values = values[i*nm : (i+1)*nm : (i+1)*nm]
		b, r, err := rc.runReplicate(env, &env.cells[g/reps], g%reps, &sp.reps[i])
		ran++
		if err != nil {
			sp.reps, sp.wall, sp.err = sp.reps[:i], sp.wall[:i], err
			break
		}
		build, run, sp.wall[i] = build+b, run+r, b+r
		events += int64(rc.s.Eng.Processed())
		if hops := rc.res.Hops; len(hops) > 1 { // a dumbbell's one figure is router_drops
			if cap(hopDrops)-len(hopDrops) < len(hops) {
				hopDrops = make([]int64, 0, len(hops)*(n-i))
			}
			for _, h := range hops {
				hopDrops = append(hopDrops, h.Drops)
			}
			sp.reps[i].HopDrops = hopDrops[len(hopDrops)-len(hops) : len(hopDrops) : len(hopDrops)]
		}
	}
	env.self.Runs.Add(ran)
	env.self.phaseBuild.Add(int64(build))
	env.self.phaseRun.Add(int64(run))
	env.self.SimEvents.Add(events)
	if rc.s != nil {
		env.self.observeSched(rc.s.Eng.SchedStats(), &rc.lastSched)
		if ws, ok := rc.s.WheelStats(); ok {
			env.self.observeWheel(ws, &rc.lastWheel)
		}
	}
	return sp
}

// runReplicate runs one seeded simulation on the (reused) context and
// condenses it into out — the stock scalars, and the plan's metrics in
// out.Values, which the caller sized; the run's Result stays in rc.res until
// the next replicate. It reads the clock three times, the boundaries of the
// two phases it reports: building or resetting the scenario, and running it.
func (rc *runContext) runReplicate(env *execEnv, c *PlanCell, rep int, out *Replicate) (build, run time.Duration, err error) {
	// Plan.Config without its deep copy: a scenario only reads the flow
	// list, topology and churn spec it is given (clipping makes the one
	// append it may do reallocate), so replicates — on any number of
	// workers — share the cell's.
	cfg := c.Config
	cfg.Flows = slices.Clip(cfg.Flows)
	if c.Key != rc.digestKey || rc.digest == 0 { // a span hashes each of its cells' keys once
		rc.digestKey, rc.digest = c.Key, keyDigest(c.Key)
	}
	cfg.Seed = mixSeed(env.p.BaseSeed, rc.digest, rep)
	cfg.Traceless = true
	t0 := time.Now()
	if rc.s == nil {
		s, err := experiment.Build(cfg)
		if err != nil {
			return 0, 0, err
		}
		rc.s = s
		// Fresh engine, fresh counters: restart the telemetry deltas.
		rc.lastSched, rc.lastWheel = sim.SchedStats{}, sim.WheelStats{}
	} else if err := rc.s.Reset(cfg); err != nil {
		rc.s = nil // half-built context: rebuild on the next job
		return 0, 0, err
	}
	t1 := time.Now()
	rc.res = rc.s.Run()
	t2 := time.Now()
	res := &rc.res
	out.Run = Run{
		Replicate:     rep,
		Seed:          cfg.Seed,
		Stalls:        res.Totals.Stalls,
		CongSignals:   res.Totals.CongSignals,
		Timeouts:      res.Totals.Timeouts,
		RouterDrops:   res.RouterDrops,
		InjectedDrops: res.InjectedDrops,
		Utilization:   res.Utilization,
		RevDrops:      res.ReverseDrops,
	}
	for _, tp := range res.FlowThroughputs {
		out.ThroughputBps += float64(tp)
	}
	for i, m := range env.p.Metrics {
		out.Values[i] = stats.JSONFloat(m.Extract(res))
	}
	if env.opts.ExportWeb100 {
		out.Web100 = make([]web100.Export, len(res.FlowStats))
		for i, fs := range res.FlowStats {
			out.Web100[i] = fs.Export()
		}
	}
	// Anomaly dump happens here — after the run, before the scenario is
	// reused — so the ring still holds exactly this replicate's timeline.
	// The recorder's contents are a pure function of (Config, Seed), which
	// makes the dumped bytes worker-count-independent.
	if env.opts.AnomalySink != nil && anomalous(out.Run) {
		env.opts.AnomalySink(c.Key, rep, rc.s.FR.AppendJSONL(nil))
		env.self.Anomalies.Inc()
	}
	return t1.Sub(t0), t2.Sub(t1), nil
}

// dispatchSpan sizes the contiguous run spans handed to workers: long
// enough that the per-span costs (result message, buffers, shared-counter
// updates) amortize over many runs and a cell's replicates land back to back
// on one reused scenario, short enough to keep every worker fed and the
// collector's reorder buffer shallow.
func dispatchSpan(total, workers int) int {
	s := total / (workers * 8)
	if s < 1 {
		return 1
	}
	if s > 64 {
		return 64
	}
	return s
}

// spanWindow is how many spans per worker may be dispatched and not yet
// folded: enough slack that the dispatcher stays off the critical path.
const spanWindow = 8

// ExecutePlan runs every cell of the plan's axis product, replicated on a
// bounded worker pool, and summarizes the plan's metrics per cell. It is the
// engine's entry point.
//
// Aggregation streams: workers return their replicates a span at a time and
// the collector folds them strictly in canonical (cell, replicate) order —
// spans that complete early wait in a reorder buffer bounded by the worker
// count — so summaries are bit-identical to a batch Describe over the
// replicates in order, independent of worker count, and (with
// Options.RetainRuns off) the replicates themselves are dropped as soon as
// they are folded. A failed replicate ends the campaign: nothing further is
// dispatched, and the error returned is the canonically first one.
func ExecutePlan(p Plan, opts Options) (*Report, error) {
	p = p.withDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cells := p.Cells()
	out, err := executeCells(p, cells, opts, nil)
	if err != nil {
		return nil, err
	}
	return &Report{Plan: p, Cells: out}, nil
}

// executeCells is the execution core: it runs every replicate of the given
// cells (any contiguous or arbitrary subset of the plan's canonical cell
// list) on a bounded worker pool and returns one finished ReportCell per
// input cell, in input order. The plan must already be defaulted and
// validated. onCell, when non-nil, observes each cell's metric accumulators
// the moment the cell completes, before they are recycled — the shard
// executor uses it to capture exact aggregation state for the merge.
func executeCells(p Plan, cells []PlanCell, opts Options, onCell func(local int, accs []stats.Accumulator)) ([]ReportCell, error) {
	total := len(cells) * p.Replicates
	if total == 0 {
		// A shard can legitimately own zero cells (more shards than cells).
		return []ReportCell{}, nil
	}
	workers := opts.workers()
	if workers > total {
		workers = total
	}
	span := dispatchSpan(total, workers)
	env := &execEnv{
		p:     p,
		cells: cells,
		opts:  opts,
		self:  opts.Self,
	}
	if env.self == nil {
		env.self = NewSelfMetrics()
	}

	jobs := make(chan [2]int, workers)
	results := make(chan spanResult, 2*workers)
	// tokens bounds the spans dispatched but not yet folded, and with them
	// the collector's reorder buffer: the dispatcher acquires one token per
	// span, the collector releases one per span folded. If the canonically-
	// first cell is also the slowest, the other workers stall once the
	// window fills instead of racing ahead and buffering the whole campaign
	// — the bound is O(workers × span) runs (a couple of MB at the
	// defaults' ceiling), flat in campaign size. Deadlock-free because the
	// collector folds eagerly, so the lowest unfolded span is always in
	// flight or queued, never stuck in the buffer. After a failure the
	// collector keeps its tokens and closes failed: the dispatcher hands
	// out at most the window it already held, then stops.
	window := spanWindow * workers
	tokens := make(chan struct{}, window)
	failed := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			var rc runContext
			for jb := range jobs {
				results <- rc.runSpan(env, jb[0], jb[1])
			}
		}()
	}
	go func() {
		defer func() {
			close(jobs)
			wg.Wait()
			close(results)
		}()
		for lo := 0; lo < total; lo += span {
			select {
			case tokens <- struct{}{}:
			case <-failed:
				return
			}
			jobs <- [2]int{lo, min(lo+span, total)}
		}
	}()

	// Collector: fold strictly in canonical order. Spans in flight are
	// consecutive and at most window many, so a span that arrives early
	// waits in ring slot (its number mod window) — free by construction, no
	// map. A slot is occupied while its reps are non-nil.
	out := make([]ReportCell, len(cells))
	f := folder{
		p: p, cells: cells, out: out,
		retain:   opts.RetainRuns,
		accs:     make([]stats.Accumulator, len(p.Metrics)),
		total:    total,
		stride:   opts.progressStride(total),
		progress: opts.Progress,
		onCell:   onCell,
		self:     env.self,
	}
	ring := make([]spanResult, window)
	next, waiting := 0, 0 // next span to fold; runs parked in the ring
	for sp := range results {
		ring[(sp.lo/span)%window] = sp
		waiting += len(sp.reps)
		foldStart := time.Now()
		for slot := &ring[next%window]; slot.reps != nil; slot = &ring[next%window] {
			cur := *slot
			*slot = spanResult{}
			waiting -= len(cur.reps)
			next++
			if f.err != nil {
				continue // failed: only drain what was already out
			}
			for i := range cur.reps {
				f.fold(cur.lo+i, &cur.reps[i], cur.wall[i])
			}
			if cur.err != nil {
				f.fail(cur.lo+len(cur.reps), cur.err)
				close(failed)
				continue
			}
			<-tokens
		}
		env.self.phaseFold.Add(int64(time.Since(foldStart)))
		env.self.reorderDepth.Store(int64(waiting))
	}
	if f.err != nil {
		return nil, f.err
	}
	return out, nil
}

// folder accumulates one cell at a time. Because folding is in canonical
// order, cells complete strictly in sequence: the accumulators (and, when
// retaining, the runs buffer) are recycled from cell to cell, so live
// aggregation state is O(metrics), not O(cells × runs).
type folder struct {
	p        Plan
	cells    []PlanCell
	out      []ReportCell
	accs     []stats.Accumulator // one per plan metric, reset per cell
	runs     []Replicate         // current cell's replicates (retain mode)
	retain   bool
	total    int
	stride   int
	progress func(done, total int)
	onCell   func(local int, accs []stats.Accumulator)
	self     *SelfMetrics
	cellWall time.Duration // current cell's cumulative replicate wall time
	done     int
	err      error
}

// fail records the campaign's error: run idx, the first failure in canonical
// order because folding is.
func (f *folder) fail(idx int, err error) {
	ci, ri := idx/f.p.Replicates, idx%f.p.Replicates
	f.err = fmt.Errorf("campaign: cell %d (%s) replicate %d: %w", ci, f.cells[ci].Key, ri, err)
}

func (f *folder) fold(idx int, r *Replicate, wall time.Duration) {
	f.cellWall += wall
	ci, ri := idx/f.p.Replicates, idx%f.p.Replicates
	for mi := range f.accs {
		f.accs[mi].Add(float64(r.Values[mi]))
	}
	if f.retain {
		f.runs = append(f.runs, *r)
	}
	f.done++
	if f.progress != nil && (f.done == f.total || f.done%f.stride == 0) {
		f.progress(f.done, f.total)
	}
	if ri == f.p.Replicates-1 {
		f.finalize(ci)
	}
}

// finalize snapshots the completed cell's summaries and recycles the
// aggregation state for the next cell.
func (f *folder) finalize(ci int) {
	c := f.cells[ci]
	out := ReportCell{
		Index:   c.Index,
		Key:     c.Key,
		Labels:  c.Labels,
		Metrics: make([]MetricSummary, len(f.p.Metrics)),
		config:  c.Config,
	}
	if f.onCell != nil {
		f.onCell(ci, f.accs)
	}
	if f.self != nil {
		f.self.ObserveCellWall(c.Key, f.cellWall)
	}
	f.cellWall = 0
	for mi, m := range f.p.Metrics {
		out.Metrics[mi] = MetricSummary{Name: m.Name, Summary: f.accs[mi].Summary()}
		f.accs[mi].Reset()
	}
	if f.retain {
		out.Runs = append([]Replicate(nil), f.runs...)
		f.runs = f.runs[:0]
	}
	f.out[ci] = out
}
