package main

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"rsstcp/bench/layers"
	"rsstcp/internal/campaign"
)

// tracedPass reruns the workload with harness spans kept in memory and a
// CPU profile running, then the layer drivers, and assembles every per-layer
// metric. It returns the metrics and the traced repetitions' check results
// (a traced repetition that fails a check is a failed operation too).
func tracedPass(w workload, o runOpts, h *harness, un *passResult, rr runResult, tr *tracer, stdout io.Writer) (map[string]metricValue, *passResult, error) {
	th := &harness{heap: h.heap, tr: tr}
	top := tr.begin("workload:" + w.Name)
	defer tr.end(top)

	prof := filepath.Join(o.OutDir, w.Name+".cpu.pb.gz")
	var tp *passResult
	budget := time.Duration(o.Seconds / 3 * float64(time.Second))
	if err := cpuProfile(prof, func() { tp = runPass(w, o, th, budget) }); err != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	if len(tp.Reps) == 0 {
		return nil, tp, fmt.Errorf("traced pass: no repetition passed its checks: %v", tp.Failures)
	}
	shares, err := foldProfile(prof)
	if err != nil {
		return nil, tp, err
	}

	out := map[string]metricValue{}
	unit := map[string]string{}
	for _, d := range perLayer {
		unit[d.Name] = d.Unit
		out[d.Name] = metricValue{Unit: d.Unit} // a layer the workload starves reads 0
	}
	set := func(name string, v float64) {
		out[name] = metricValue{Value: v, Unit: unit[name], Q1: v, Q3: v, N: 1}
	}

	// Exact counters, from the traced pass's first repetition (seed = -seed);
	// the untraced pass's must agree or tracing perturbed the simulation.
	k := tp.First.Counts
	if tp.First.Digest != un.First.Digest {
		tp.Failed++
		tp.Failures = append(tp.Failures, fmt.Sprintf("traced digest %v differs from untraced %v",
			tp.First.Digest, un.First.Digest))
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	set("sim.events_per_rep", float64(k.Events))
	set("sim.cancel_share", ratio(float64(k.Cancelled), float64(k.Processed+k.Cancelled)))
	set("sim.calendar_high_water", float64(k.HighWater))
	set("sim.pool_reuse_share", ratio(float64(k.PoolReused), float64(k.PoolCreated+k.PoolReused)))
	set("sim.ladder_sorts", float64(k.LadderSorts))
	set("sim.ladder_sprays", float64(k.LadderSprays))
	set("sim.wheel_armed", float64(k.WheelArmed))
	set("sim.wheel_direct", float64(k.WheelDirect))
	set("sim.wheel_flushes", float64(k.WheelFlushes))
	set("netem.hops_per_seg", ratio(float64(k.HopSegs), float64(k.DataSegs)))
	set("netem.drops", float64(k.Drops))
	set("netem.loss_drops", float64(k.LossDrops))
	set("netem.max_queue", float64(k.MaxQueue))
	set("netem.avg_queue", ratio(k.AvgQueueSum, float64(k.Hops)))
	set("netem.rev_drops", float64(k.RevDrops))
	set("host.stalls", float64(k.Stalls))
	set("host.ifq_high_water", float64(k.IFQHighWater))
	set("tcp.retrans", float64(k.Retrans))
	set("tcp.rtos", float64(k.RTOs))
	set("tcp.flowtable_rows_peak", float64(k.Rows))
	set("tcp.goodput_mbps_sim", ratio(k.GoodputMbpsSum, float64(max(tp.First.Runs, 1))))
	set("core.ticks_per_rep", float64(k.Ticks))
	set("core.throttled_ticks", float64(k.Throttled))
	set("packet.pool_balance", float64(k.PoolGets-k.PoolRelease))
	set("lifecycle.flows_done", float64(k.FlowsDone))
	set("lifecycle.flows_refused", float64(k.FlowsRefused))
	set("telemetry.events_recorded", float64(k.FRTotal))
	set("telemetry.evicted", float64(k.FREvicted))
	if total := k.PhaseBuild + k.PhaseRun + k.PhaseFold; total > 0 {
		set("campaign.phase_build_share", ratio(float64(k.PhaseBuild), float64(total)))
		set("campaign.phase_run_share", ratio(float64(k.PhaseRun), float64(total)))
		set("campaign.phase_fold_share", ratio(float64(k.PhaseFold), float64(total)))
		set("campaign.export_ms", float64(k.Export)/1e6)
		set("campaign.reorder_depth_max", float64(k.ReorderMax))
	}

	// Layer drivers: each three times (once, on a tenth of the work, under
	// -quick), the median reported. They start from a collected heap so the
	// workload's garbage does not tax them.
	h.heap.liveHeap()
	drv := map[string]float64{}
	xs, div := make([]float64, 3), 1
	if o.Quick {
		xs, div = xs[:1], 10
	}
	for _, d := range layers.Drivers {
		sp := tr.begin("layers." + d.Metric)
		for i := range xs {
			ops, el := d.Run(div)
			xs[i] = d.Scale * float64(el.Nanoseconds()) / float64(ops)
		}
		tr.end(sp)
		q1, med, q3 := quartiles(xs)
		drv[d.Metric] = med
		out[d.Metric] = metricValue{Value: med, Unit: unit[d.Metric], Q1: q1, Q3: q3, N: len(xs)}
	}

	// Multi-core truth, on the workload that has a worker pool.
	if in := w.gen(o.Seed, 1); in.grid != nil {
		sp := tr.begin("campaign.scaling")
		sc, err := campaignScaling(in, o.Quick)
		tr.end(sp)
		if err != nil {
			return nil, tp, fmt.Errorf("campaign scaling: %w", err)
		}
		set("campaign.workers_speedup", sc.workers)
		set("campaign.workers_efficiency", sc.workers/float64(sc.nproc))
		set("campaign.shards_speedup", sc.shards)
		set("campaign.shard_roundtrip_ms", sc.roundtripMs)
		over := ""
		if sc.nproc > runtime.NumCPU() {
			over = "  OVERSUBSCRIBED"
		}
		fmt.Fprintf(stdout, "   campaign scaling at nproc=%d (cores=%d)%s: workers %.2fx, shards %.2fx\n",
			sc.nproc, runtime.NumCPU(), over, sc.workers, sc.shards)
	}

	// CPU shares by leaf-frame package.
	var sum float64
	for _, l := range cpuShareLayers {
		set("cpu_share."+l, shares[l])
		sum += shares[l]
	}
	if sum < 0.99 || sum > 1.01 {
		return nil, tp, fmt.Errorf("cpu shares sum to %.4f, want 1", sum)
	}

	// Runtime.
	set("runtime.gc_cycles", float64(tp.GCCycles))
	var peak uint64
	for _, r := range tp.Reps {
		peak = max(peak, r.HeapAtEnd)
	}
	set("runtime.heap_peak_mb", float64(peak)/(1<<20))

	// Harness: figures that qualify the others.
	unNs := median(samples(un.Reps, nsPerEvent))
	trNs := median(samples(tp.Reps, nsPerEvent))
	set("harness.calib_ns", (rr.CalibNs[0]+rr.CalibNs[1])/2)
	set("harness.trace_overhead_pct", 100*(trNs/unNs-1))
	set("harness.rep_iqr_pct", 100*iqrShare(samples(un.Reps, nsPerEvent)))
	set("harness.warmup_s", un.WarmupS)
	set("harness.account_residual_pct", 100*(1-account(un, drv)/unNs))
	return out, tp, nil
}

// account rebuilds the workload's ns/event from outside: each driver's cost
// per operation times how many of its operations the first repetition's
// timed windows performed (counts.Ops, from the exact counters), over the
// windows' events. Drivers carry the calendar events their operations
// cause, so the calendar is not added on top; what the sum leaves over —
// the residual — is glue no driver covers (demux, workload pumps, Web100
// accounting) plus the cache misses of running the layers together on a
// working set the drivers never see. For campaign_grid the parts are the
// engine's own phase clocks plus the export, over the wall.
func account(un *passResult, drv map[string]float64) float64 {
	k := un.First.Counts
	if k.PhaseRun > 0 {
		parts := k.PhaseBuild + k.PhaseRun + k.PhaseFold + k.Export
		return float64(parts.Nanoseconds()) / float64(k.Events)
	}
	var total float64
	for driver, n := range k.Ops {
		total += n * drv[driver]
	}
	return total / float64(k.Events)
}

// scaling is the multi-core figure set of campaign_grid.
type scaling struct {
	nproc           int
	workers, shards float64 // runs/s at nproc over runs/s at 1
	roundtripMs     float64
}

// campaignScaling runs the workload's plan at a quarter of its replicates on
// one worker, on GOMAXPROCS workers, and as GOMAXPROCS in-process shards, and
// times one shard's trip over the wire format.
func campaignScaling(in repInput, quick bool) (scaling, error) {
	p := in.grid.Plan()
	p.Replicates = max(in.reps/4, 1)
	if quick {
		p.Replicates = 1
	}
	n := runtime.GOMAXPROCS(0)
	timeIt := func(f func() error) (float64, error) {
		t0 := time.Now()
		err := f()
		return float64(p.Runs()) / time.Since(t0).Seconds(), err
	}
	one, err := timeIt(func() error {
		_, err := campaign.ExecutePlan(p, campaign.Options{Workers: 1})
		return err
	})
	if err != nil {
		return scaling{}, err
	}
	many, err := timeIt(func() error {
		_, err := campaign.ExecutePlan(p, campaign.Options{Workers: n})
		return err
	})
	if err != nil {
		return scaling{}, err
	}
	sharded, err := timeIt(func() error {
		_, err := campaign.ExecuteSharded(p, n, campaign.Options{Workers: n})
		return err
	})
	if err != nil {
		return scaling{}, err
	}
	sr, err := campaign.ExecuteShard(p, 1, 0, campaign.Options{Workers: 1})
	if err != nil {
		return scaling{}, err
	}
	t0 := time.Now()
	var wire bytes.Buffer
	if err := sr.WriteJSON(&wire); err != nil {
		return scaling{}, err
	}
	back, err := campaign.ReadShardReport(&wire)
	if err != nil {
		return scaling{}, err
	}
	if _, err := campaign.MergeShards(p, []*campaign.ShardReport{back}); err != nil {
		return scaling{}, err
	}
	return scaling{
		nproc:       n,
		workers:     many / one,
		shards:      sharded / one,
		roundtripMs: float64(time.Since(t0).Nanoseconds()) / 1e6,
	}, nil
}

// printSpans summarizes the trace: per span name, calls, total and self time.
func printSpans(w io.Writer, tr *tracer) {
	tot := tr.totals()
	names := make([]string, 0, len(tot))
	for n := range tot {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := tot[names[i]], tot[names[j]]
		return a.Self > b.Self || (a.Self == b.Self && names[i] < names[j])
	})
	fmt.Fprintf(w, "\n== harness spans (self = span minus its children)\n")
	fmt.Fprintf(w, "   %-36s %8s %12s %12s\n", "span", "calls", "total_ms", "self_ms")
	for _, n := range names {
		s := tot[n]
		fmt.Fprintf(w, "   %-36s %8d %12.2f %12.2f\n", n, s.Calls,
			float64(s.Total.Microseconds())/1e3, float64(s.Self.Microseconds())/1e3)
	}
}
