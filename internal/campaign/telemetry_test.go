package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"rsstcp/internal/experiment"
)

// anomalyPlan mixes a healthy cell with a 100%-loss cell, so the default
// anomaly predicate (RTOs or zero throughput) fires for exactly half the
// runs.
func anomalyPlan(t testing.TB) Plan {
	return Plan{
		Axes: []Axis{
			stockAxis(t, "loss", 0, 1),
			stockAxis(t, "alg", experiment.AlgStandard),
		},
		Metrics:    []Metric{MetricThroughputMbps},
		Replicates: 2,
		Duration:   2 * time.Second,
	}
}

// sinkMap is a concurrency-safe AnomalySink that retains every dump.
type sinkMap struct {
	mu    sync.Mutex
	dumps map[string][]byte
}

func newSinkMap() *sinkMap { return &sinkMap{dumps: map[string][]byte{}} }

func (m *sinkMap) sink(cellKey string, rep int, events []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dumps[fmt.Sprintf("%s#%d", cellKey, rep)] = events
}

// TestAnomalyDumpDeterministicAcrossWorkers is the tentpole's recorder
// determinism invariant: the set of anomalous replicates AND each one's
// JSONL bytes must be identical whether the campaign ran on one worker or
// four.
func TestAnomalyDumpDeterministicAcrossWorkers(t *testing.T) {
	p := anomalyPlan(t)
	collect := func(workers int) map[string][]byte {
		m := newSinkMap()
		if _, err := ExecutePlan(p, Options{Workers: workers, AnomalySink: m.sink}); err != nil {
			t.Fatal(err)
		}
		return m.dumps
	}
	d1 := collect(1)
	d4 := collect(4)
	if len(d1) == 0 {
		t.Fatal("the 100%-loss cell produced no anomaly dumps")
	}
	if len(d1) != len(d4) {
		t.Fatalf("dump sets differ: %d at 1 worker, %d at 4", len(d1), len(d4))
	}
	for k, b1 := range d1 {
		b4, ok := d4[k]
		if !ok {
			t.Fatalf("replicate %s dumped at 1 worker but not at 4", k)
		}
		if !bytes.Equal(b1, b4) {
			t.Errorf("replicate %s: JSONL differs between worker counts:\n%.500s\nvs\n%.500s", k, b1, b4)
		}
	}
	// The dumps are real JSONL congestion timelines, not empty files.
	for k, b := range d1 {
		if len(b) == 0 {
			t.Errorf("replicate %s: empty dump", k)
			continue
		}
		for _, line := range strings.Split(strings.TrimSuffix(string(b), "\n"), "\n") {
			var ev map[string]any
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("replicate %s: bad JSONL line %q: %v", k, line, err)
			}
			if _, ok := ev["kind"]; !ok {
				t.Fatalf("replicate %s: line missing kind: %q", k, line)
			}
		}
		break // one timeline's shape check suffices
	}
}

// TestWeb100ExportOptIn: the web100 block appears on replicates only under
// Options.ExportWeb100, and serializes under the "web100" key.
func TestWeb100ExportOptIn(t *testing.T) {
	p := Plan{
		Axes:       []Axis{stockAxis(t, "alg", experiment.AlgStandard)},
		Metrics:    []Metric{MetricThroughputMbps},
		Replicates: 1,
		Duration:   2 * time.Second,
	}
	off, err := ExecutePlan(p, Options{Workers: 1, RetainRuns: true})
	if err != nil {
		t.Fatal(err)
	}
	if w := off.Cells[0].Runs[0].Web100; w != nil {
		t.Fatalf("web100 block present without opt-in: %+v", w)
	}
	b, err := json.Marshal(off.Cells[0].Runs[0])
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "web100") {
		t.Fatalf("replicate JSON mentions web100 without opt-in: %s", b)
	}

	on, err := ExecutePlan(p, Options{Workers: 1, RetainRuns: true, ExportWeb100: true})
	if err != nil {
		t.Fatal(err)
	}
	w := on.Cells[0].Runs[0].Web100
	if len(w) != 1 {
		t.Fatalf("want 1 flow snapshot, got %d", len(w))
	}
	if w[0].SegsOut == 0 || w[0].ThruOctets == 0 {
		t.Errorf("snapshot looks empty: %+v", w[0])
	}
	b, err = json.Marshal(on.Cells[0].Runs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"web100"`) || !strings.Contains(string(b), `"segs_out"`) {
		t.Errorf("opt-in replicate JSON missing web100 block: %s", b)
	}
	// The opt-in block must not perturb the metric summaries.
	if off.Cells[0].Metrics[0].Summary != on.Cells[0].Metrics[0].Summary {
		t.Error("ExportWeb100 changed metric summaries")
	}
}

// TestSelfMetricsPopulated: a campaign run against a SelfMetrics instrument
// set fills its counters and phase clocks, and Snapshot reports them.
func TestSelfMetricsPopulated(t *testing.T) {
	p := anomalyPlan(t)
	self := NewSelfMetrics()
	if _, err := ExecutePlan(p, Options{Workers: 2, Self: self}); err != nil {
		t.Fatal(err)
	}
	total := int64(len(p.Cells()) * p.withDefaults().Replicates)
	if self.Runs.Value() != total {
		t.Errorf("runs counter = %d, want %d", self.Runs.Value(), total)
	}
	if self.SimEvents.Value() == 0 {
		t.Error("sim-events counter never advanced")
	}
	build, run, _ := self.Phases()
	if build <= 0 || run <= 0 {
		t.Errorf("phase clocks not charged: build=%v run=%v", build, run)
	}
	snap := self.Snapshot()
	if got := snap["rsstcp_campaign_runs_total"]; got != float64(total) {
		t.Errorf("snapshot runs_total = %v, want %d", got, total)
	}
	if got := snap["rsstcp_campaign_sim_events_total"]; got != float64(self.SimEvents.Value()) || got == 0 {
		t.Errorf("snapshot sim_events_total = %v, counter %d", got, self.SimEvents.Value())
	}
	if snap["rsstcp_campaign_runs_per_sec"] <= 0 || snap["rsstcp_campaign_elapsed_seconds"] <= 0 {
		t.Errorf("snapshot rates not positive: %v", snap)
	}
	if snap["rsstcp_campaign_phase_build_seconds"] != build.Seconds() ||
		snap["rsstcp_campaign_phase_run_seconds"] != run.Seconds() {
		t.Errorf("snapshot phases differ from Phases(): %v", snap)
	}
	if v, ok := snap["rsstcp_campaign_reorder_depth"]; !ok || v != 0 {
		t.Errorf("reorder depth after the campaign = %v (present %v), want 0", v, ok)
	}
}

// TestSelfMetricsSchedulerCounters: campaigns pinned to each calendar
// backend charge the matching scheduler counters — ladder campaigns move
// the ladder sort counter, wheel-timer campaigns move the wheel arm
// counters — and Snapshot reports them.
func TestSelfMetricsSchedulerCounters(t *testing.T) {
	run := func(sched string, wheel bool) *SelfMetrics {
		p := anomalyPlan(t)
		p.Base.Scheduler = sched
		p.Base.TimerWheel = wheel
		self := NewSelfMetrics()
		if _, err := ExecutePlan(p, Options{Workers: 2, Self: self}); err != nil {
			t.Fatal(err)
		}
		return self
	}

	lad := run("ladder", false)
	if lad.SchedSorts.Value() == 0 {
		t.Error("ladder campaign: sort counter never advanced")
	}
	if lad.SchedMaxSize() == 0 {
		t.Error("ladder campaign: calendar high water never observed")
	}

	wheel := run("heap", true)
	if wheel.WheelArmed.Value()+wheel.WheelDirect.Value() == 0 {
		t.Error("wheel campaign: no timer arms observed")
	}

	heap := run("heap", false)
	if v := heap.SchedSorts.Value(); v != 0 {
		t.Errorf("heap campaign: ladder sort counter = %d, want 0", v)
	}

	for _, c := range []struct {
		self *SelfMetrics
		key  string
		want int64
	}{
		{lad, "rsstcp_campaign_sched_sorts_total", lad.SchedSorts.Value()},
		{lad, "rsstcp_campaign_sched_max_size", lad.SchedMaxSize()},
		{lad, "rsstcp_campaign_sched_max_rungs", lad.SchedMaxRungs()},
		{wheel, "rsstcp_campaign_wheel_armed_total", wheel.WheelArmed.Value()},
		{wheel, "rsstcp_campaign_wheel_direct_total", wheel.WheelDirect.Value()},
		{wheel, "rsstcp_campaign_wheel_flushes_total", wheel.WheelFlushes.Value()},
		{heap, "rsstcp_campaign_sched_sorts_total", 0},
	} {
		if got := c.self.Snapshot()[c.key]; got != float64(c.want) {
			t.Errorf("snapshot %s = %v, want %d", c.key, got, c.want)
		}
	}
}

// telemetryKeys is the -telemetry tail's schema: every SelfMetrics
// instrument under its rsstcp_campaign_* name, counters with _total.
var telemetryKeys = []string{
	"rsstcp_campaign_anomalies_total",
	"rsstcp_campaign_cell_wall_max_seconds",
	"rsstcp_campaign_elapsed_seconds",
	"rsstcp_campaign_phase_build_seconds",
	"rsstcp_campaign_phase_fold_seconds",
	"rsstcp_campaign_phase_run_seconds",
	"rsstcp_campaign_reorder_depth",
	"rsstcp_campaign_runs_per_sec",
	"rsstcp_campaign_runs_total",
	"rsstcp_campaign_sched_demotes_total",
	"rsstcp_campaign_sched_max_rungs",
	"rsstcp_campaign_sched_max_size",
	"rsstcp_campaign_sched_rebases_total",
	"rsstcp_campaign_sched_sorts_total",
	"rsstcp_campaign_sched_sprays_total",
	"rsstcp_campaign_sim_events_per_sec",
	"rsstcp_campaign_sim_events_total",
	"rsstcp_campaign_wheel_armed_total",
	"rsstcp_campaign_wheel_direct_total",
	"rsstcp_campaign_wheel_flushes_total",
}

// TestReportTelemetryTail: a campaign's SelfMetrics snapshot serializes as
// a trailing "telemetry" object with exactly the schema's keys; nil leaves
// the historical shape untouched, byte for byte.
func TestReportTelemetryTail(t *testing.T) {
	p := Plan{
		Axes:       []Axis{stockAxis(t, "alg", experiment.AlgStandard, experiment.AlgRestricted)},
		Metrics:    []Metric{MetricThroughputMbps},
		Replicates: 2,
		Duration:   time.Second,
	}
	self := NewSelfMetrics()
	rep, err := ExecutePlan(p, Options{Workers: 2, Self: self})
	if err != nil {
		t.Fatal(err)
	}
	var plain strings.Builder
	if err := rep.WriteJSON(&plain); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), `"telemetry"`) {
		t.Fatal("telemetry key present without a snapshot")
	}

	rep.Telemetry = self.Snapshot()
	var tailed strings.Builder
	if err := rep.WriteJSON(&tailed); err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(tailed.String()), &doc); err != nil {
		t.Fatalf("tailed report is not valid JSON: %v", err)
	}
	var snap map[string]float64
	if err := json.Unmarshal(doc["telemetry"], &snap); err != nil {
		t.Fatalf("telemetry block: %v", err)
	}
	var keys []string
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if fmt.Sprint(keys) != fmt.Sprint(telemetryKeys) {
		t.Errorf("telemetry keys:\n got %v\nwant %v", keys, telemetryKeys)
	}
	if got := snap["rsstcp_campaign_runs_total"]; got != float64(p.Runs()) {
		t.Errorf("runs_total = %v, want plan.Runs() = %d", got, p.Runs())
	}
	// Everything before the tail is byte-identical to the plain render.
	prefix := strings.TrimSuffix(plain.String(), "\n}\n")
	if !strings.HasPrefix(tailed.String(), prefix) {
		t.Error("telemetry tail perturbed the cells/plan prefix")
	}
}
