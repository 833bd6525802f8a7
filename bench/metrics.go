package main

// The metric tables are the single source of names, units and bounds in the
// harness; BENCHMARK.json repeats them for the driver and smoke_test.go
// fails when the two drift apart.

// metricDef names one metric. Bound is the share of the parent's median by
// which an end-to-end metric may get worse before a change is a regression;
// per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	// Exact marks a simulated statistic or a count that must repeat
	// exactly for a fixed seed; -compare demands equality on these.
	Exact bool
}

// endToEnd lists what a user of the simulator feels. Host time unless the
// name ends in _sim or the comment says simulated.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ns_per_event", Unit: "ns", Better: "lower", Bound: 0.25},
	{Name: "runs_per_sec", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "flows_per_sec", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "allocs_per_kevent", Unit: "count", Better: "lower", Bound: 0.15},
	{Name: "live_heap_mb", Unit: "MiB", Better: "lower", Bound: 0.20},
	{Name: "bytes_per_flow", Unit: "B", Better: "lower", Bound: 0.20},
	// Simulated: 100·|gain − 1.40|/1.40 on the paper path.
	{Name: "paper_gain_err_pct", Unit: "%", Better: "lower", Bound: 0, Exact: true},
	{Name: "sim_s_per_wall_s", Unit: "ratio", Better: "higher", Bound: 0.25},
}

// cpuShareLayers are the buckets of the leaf-frame fold, in print order.
var cpuShareLayers = []string{
	"sim", "netem", "host", "tcp", "cc", "core", "pid", "packet", "lifecycle",
	"experiment", "campaign", "stats", "telemetry", "trace", "web100",
	"runtime", "other",
}

// perLayer lists the single-layer metrics of the traced pass. Counts are
// read from the packages' public stats after a rep; *_ns figures come from
// the drivers in bench/layers; cpu_share.* from the CPU profile.
var perLayer = func() []metricDef {
	count := func(names ...string) []metricDef {
		var ds []metricDef
		for _, n := range names {
			ds = append(ds, metricDef{Name: n, Unit: "count", Better: "lower", Exact: true})
		}
		return ds
	}
	ns := func(names ...string) []metricDef {
		var ds []metricDef
		for _, n := range names {
			ds = append(ds, metricDef{Name: n, Unit: "ns", Better: "lower"})
		}
		return ds
	}
	var ds []metricDef
	// sim
	ds = append(ds, count("sim.events_per_rep")...)
	ds = append(ds, metricDef{Name: "sim.cancel_share", Unit: "ratio", Better: "lower", Exact: true})
	ds = append(ds, count("sim.calendar_high_water")...)
	ds = append(ds, metricDef{Name: "sim.pool_reuse_share", Unit: "ratio", Better: "higher", Exact: true})
	ds = append(ds, count("sim.ladder_sorts", "sim.ladder_sprays",
		"sim.wheel_armed", "sim.wheel_direct", "sim.wheel_flushes")...)
	ds = append(ds, ns("sim.hold8_ns.heap", "sim.hold8_ns.ladder",
		"sim.hold50k_ns.heap", "sim.hold50k_ns.ladder",
		"sim.wheel_arm_ns", "sim.timer_rearm_ns")...)
	// netem
	ds = append(ds, ns("netem.arena_1hop_ns", "netem.arena_3hop_red_ns",
		"netem.link_ns", "netem.inject_ns")...)
	ds = append(ds, metricDef{Name: "netem.hops_per_seg", Unit: "ratio", Better: "lower", Exact: true})
	ds = append(ds, count("netem.drops", "netem.loss_drops", "netem.max_queue")...)
	ds = append(ds, metricDef{Name: "netem.avg_queue", Unit: "pkts", Better: "lower", Exact: true})
	ds = append(ds, count("netem.rev_drops")...)
	// host
	ds = append(ds, ns("host.ifq_send_ns")...)
	ds = append(ds, count("host.stalls", "host.ifq_high_water")...)
	// tcp
	ds = append(ds, ns("tcp.ack_ns", "tcp.ack_sack_loss_ns", "tcp.flowtable_row_ns")...)
	ds = append(ds, count("tcp.retrans", "tcp.rtos", "tcp.flowtable_rows_peak")...)
	ds = append(ds, metricDef{Name: "tcp.goodput_mbps_sim", Unit: "Mbps", Better: "higher", Exact: true})
	// cc + core + pid
	ds = append(ds, ns("cc.on_ack_ns", "core.pid_tick_ns", "pid.update_ns")...)
	ds = append(ds, count("core.ticks_per_rep", "core.throttled_ticks")...)
	// packet
	ds = append(ds, ns("packet.get_release_ns")...)
	ds = append(ds, count("packet.pool_balance")...)
	// lifecycle + experiment
	ds = append(ds, ns("lifecycle.arrival_draw_ns", "lifecycle.size_draw_ns",
		"experiment.attach_detach_ns")...)
	ds = append(ds, count("lifecycle.flows_done", "lifecycle.flows_refused")...)
	ds = append(ds,
		metricDef{Name: "experiment.build_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "experiment.reset_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "experiment.result_us", Unit: "us", Better: "lower"})
	// campaign + stats
	ds = append(ds,
		metricDef{Name: "campaign.phase_build_share", Unit: "ratio", Better: "lower"},
		metricDef{Name: "campaign.phase_run_share", Unit: "ratio", Better: "higher"},
		metricDef{Name: "campaign.phase_fold_share", Unit: "ratio", Better: "lower"},
		metricDef{Name: "campaign.export_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "campaign.reorder_depth_max", Unit: "count", Better: "lower"},
		metricDef{Name: "stats.accumulate_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "campaign.workers_speedup", Unit: "ratio", Better: "higher"},
		metricDef{Name: "campaign.workers_efficiency", Unit: "ratio", Better: "higher"},
		metricDef{Name: "campaign.shards_speedup", Unit: "ratio", Better: "higher"},
		metricDef{Name: "campaign.shard_roundtrip_ms", Unit: "ms", Better: "lower"})
	// telemetry + trace
	ds = append(ds, ns("telemetry.record_ns")...)
	ds = append(ds, count("telemetry.events_recorded", "telemetry.evicted")...)
	ds = append(ds, ns("trace.sample_ns")...)
	// cpu_share.*
	for _, l := range cpuShareLayers {
		ds = append(ds, metricDef{Name: "cpu_share." + l, Unit: "ratio", Better: "lower"})
	}
	// runtime
	ds = append(ds,
		metricDef{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
		metricDef{Name: "runtime.heap_peak_mb", Unit: "MiB", Better: "lower"})
	// harness: these qualify the other numbers and should move nothing.
	ds = append(ds,
		metricDef{Name: "harness.calib_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "harness.trace_overhead_pct", Unit: "%", Better: "lower"},
		metricDef{Name: "harness.account_residual_pct", Unit: "%", Better: "lower"},
		metricDef{Name: "harness.rep_iqr_pct", Unit: "%", Better: "lower"},
		metricDef{Name: "harness.warmup_s", Unit: "s", Better: "lower"})
	return ds
}()
