package campaign

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rsstcp/internal/sim"
	"rsstcp/internal/telemetry"
)

// SelfMetrics is the campaign engine's wall-clock self-observation: run and
// simulator-event throughput, reorder-buffer depth, anomaly-dump count, and
// the per-phase wall-time breakdown. Workers and the collector update it
// concurrently (all fields are atomic). It has three readers: the CLI's
// stderr epilogue, Snapshot (the -telemetry tail of a JSON report) and the
// bench harness.
//
// Everything here is wall-clock observation of the engine itself — it is
// explicitly outside the byte-determinism guarantees of the result exports,
// which is why Report.WriteJSON only emits it when the caller opts in.
type SelfMetrics struct {
	started time.Time

	// Runs counts completed replicate runs (successful or failed). Workers
	// update it, SimEvents and the build/run phase clocks once per
	// dispatched span (at most 64 runs), not per run.
	Runs telemetry.Counter
	// SimEvents counts simulator calendar events executed, summed over
	// every worker's engine.
	SimEvents telemetry.Counter
	// Anomalies counts replicates whose flight recorder was dumped by the
	// anomaly sink.
	Anomalies telemetry.Counter

	// Scheduler self-observation (PR 9): calendar-backend counters summed
	// over every worker's engine, plus the timer-wheel arm classification.
	// All zero when the campaign runs on the binary heap without a wheel.
	SchedSorts   telemetry.Counter // ladder buckets lazily sorted into the drain list
	SchedSprays  telemetry.Counter // dense ladder buckets redistributed into finer rungs
	SchedRebases telemetry.Counter // ladder overflow-band redistributions (bucket resizes)
	SchedDemotes telemetry.Counter // oversized drain lists split back to the overflow band
	WheelArmed   telemetry.Counter // endpoint timers armed on the wheel's ring
	WheelDirect  telemetry.Counter // near-deadline timers armed directly on the calendar
	WheelFlushes telemetry.Counter // wheel slot flushes into the calendar

	schedMaxRungs atomic.Int64 // deepest ladder rung stack observed (spray depth)
	schedMaxSize  atomic.Int64 // calendar occupancy high water over all engines

	reorderDepth atomic.Int64 // runs of early spans waiting in the collector's reorder buffer

	phaseBuild atomic.Int64 // ns spent building/resetting scenarios
	phaseRun   atomic.Int64 // ns spent inside Scenario.Run
	phaseFold  atomic.Int64 // ns spent folding results into cell summaries

	// Per-cell wall observation: the collector attributes each replicate's
	// wall time to its cell and keeps the slowest cells, so the epilogue can
	// name where a campaign's time went — the cells to shrink or split off
	// when a sweep runs long.
	cellMu  sync.Mutex
	slowest []CellWall
}

// CellWall is one cell's cumulative replicate wall time, as observed by the
// collector.
type CellWall struct {
	Key  string
	Wall time.Duration
}

// slowestCap bounds how many slowest-cell records SelfMetrics retains.
const slowestCap = 8

// NewSelfMetrics returns a zeroed instrument set with the clock started.
func NewSelfMetrics() *SelfMetrics {
	return &SelfMetrics{started: time.Now()}
}

// Elapsed returns wall time since construction.
func (m *SelfMetrics) Elapsed() time.Duration { return time.Since(m.started) }

// ReorderDepth returns the collector's current reorder-buffer depth.
func (m *SelfMetrics) ReorderDepth() int64 { return m.reorderDepth.Load() }

// Phases returns the cumulative wall time per execution phase. Build and run
// sum across workers, so on an N-worker campaign they can exceed elapsed
// wall time N-fold; fold is single-threaded collector time.
func (m *SelfMetrics) Phases() (build, run, fold time.Duration) {
	return time.Duration(m.phaseBuild.Load()),
		time.Duration(m.phaseRun.Load()),
		time.Duration(m.phaseFold.Load())
}

// observeSched folds one engine's scheduler counters into the campaign
// totals. The engine's counters are lifetime values that survive Reset and
// so span every replicate run on a reused scenario; prev carries the last
// snapshot per worker context, making each fold the delta since the last.
func (m *SelfMetrics) observeSched(cur sim.SchedStats, prev *sim.SchedStats) {
	m.SchedSorts.Add(int64(cur.Sorts - prev.Sorts))
	m.SchedSprays.Add(int64(cur.Sprays - prev.Sprays))
	m.SchedRebases.Add(int64(cur.Rebases - prev.Rebases))
	m.SchedDemotes.Add(int64(cur.Demotes - prev.Demotes))
	maxStore(&m.schedMaxRungs, int64(cur.MaxRungs))
	maxStore(&m.schedMaxSize, int64(cur.MaxSize))
	*prev = cur
}

// observeWheel folds one scenario's timer-wheel counters, delta-style like
// observeSched (the wheel also survives Reset with lifetime counters).
func (m *SelfMetrics) observeWheel(cur sim.WheelStats, prev *sim.WheelStats) {
	m.WheelArmed.Add(int64(cur.Armed - prev.Armed))
	m.WheelDirect.Add(int64(cur.Direct - prev.Direct))
	m.WheelFlushes.Add(int64(cur.Flushes - prev.Flushes))
	*prev = cur
}

// ObserveCellWall attributes a completed cell's cumulative replicate wall
// time, retaining the slowest slowestCap cells.
func (m *SelfMetrics) ObserveCellWall(key string, wall time.Duration) {
	m.cellMu.Lock()
	defer m.cellMu.Unlock()
	m.slowest = append(m.slowest, CellWall{Key: key, Wall: wall})
	sort.Slice(m.slowest, func(i, j int) bool { return m.slowest[i].Wall > m.slowest[j].Wall })
	if len(m.slowest) > slowestCap {
		m.slowest = m.slowest[:slowestCap]
	}
}

// SlowestCells returns the slowest observed cells, most expensive first.
func (m *SelfMetrics) SlowestCells() []CellWall {
	m.cellMu.Lock()
	defer m.cellMu.Unlock()
	return append([]CellWall(nil), m.slowest...)
}

// SchedMaxRungs returns the deepest ladder rung stack observed.
func (m *SelfMetrics) SchedMaxRungs() int64 { return m.schedMaxRungs.Load() }

// SchedMaxSize returns the calendar occupancy high water over all engines.
func (m *SelfMetrics) SchedMaxSize() int64 { return m.schedMaxSize.Load() }

func maxStore(dst *atomic.Int64, v int64) {
	for {
		old := dst.Load()
		if v <= old || dst.CompareAndSwap(old, v) {
			return
		}
	}
}

// RunsPerSec returns the completed-run rate over the elapsed wall time.
func (m *SelfMetrics) RunsPerSec() float64 {
	return rate(m.Runs.Value(), m.Elapsed())
}

// EventsPerSec returns the simulator-event rate over the elapsed wall time.
func (m *SelfMetrics) EventsPerSec() float64 {
	return rate(m.SimEvents.Value(), m.Elapsed())
}

func rate(n int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// Snapshot returns the instrument set's current values under their
// rsstcp_campaign_* names, counters with a _total suffix: the -telemetry
// tail of a JSON report. It is safe to call while workers still run.
func (m *SelfMetrics) Snapshot() map[string]float64 {
	build, run, fold := m.Phases()
	var cellWallMax float64
	if s := m.SlowestCells(); len(s) > 0 {
		cellWallMax = s[0].Wall.Seconds()
	}
	return map[string]float64{
		"rsstcp_campaign_runs_total":            float64(m.Runs.Value()),
		"rsstcp_campaign_sim_events_total":      float64(m.SimEvents.Value()),
		"rsstcp_campaign_anomalies_total":       float64(m.Anomalies.Value()),
		"rsstcp_campaign_runs_per_sec":          m.RunsPerSec(),
		"rsstcp_campaign_sim_events_per_sec":    m.EventsPerSec(),
		"rsstcp_campaign_reorder_depth":         float64(m.ReorderDepth()),
		"rsstcp_campaign_elapsed_seconds":       m.Elapsed().Seconds(),
		"rsstcp_campaign_phase_build_seconds":   build.Seconds(),
		"rsstcp_campaign_phase_run_seconds":     run.Seconds(),
		"rsstcp_campaign_phase_fold_seconds":    fold.Seconds(),
		"rsstcp_campaign_sched_sorts_total":     float64(m.SchedSorts.Value()),
		"rsstcp_campaign_sched_sprays_total":    float64(m.SchedSprays.Value()),
		"rsstcp_campaign_sched_rebases_total":   float64(m.SchedRebases.Value()),
		"rsstcp_campaign_sched_demotes_total":   float64(m.SchedDemotes.Value()),
		"rsstcp_campaign_wheel_armed_total":     float64(m.WheelArmed.Value()),
		"rsstcp_campaign_wheel_direct_total":    float64(m.WheelDirect.Value()),
		"rsstcp_campaign_wheel_flushes_total":   float64(m.WheelFlushes.Value()),
		"rsstcp_campaign_sched_max_rungs":       float64(m.SchedMaxRungs()),
		"rsstcp_campaign_sched_max_size":        float64(m.SchedMaxSize()),
		"rsstcp_campaign_cell_wall_max_seconds": cellWallMax,
	}
}
