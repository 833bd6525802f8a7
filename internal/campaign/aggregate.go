package campaign

import (
	"encoding/json"

	"rsstcp/internal/experiment"
	"rsstcp/internal/stats"
)

// MetricSummary is one metric's aggregate statistics over a cell's
// replicates.
type MetricSummary struct {
	Name string `json:"name"`
	stats.Summary
}

// jsonMetricSummary is the flattened wire shape. Without it the embedded
// Summary's NaN-tolerant MarshalJSON would be promoted and the name lost.
type jsonMetricSummary struct {
	Name string          `json:"name"`
	N    int             `json:"n"`
	Mean stats.JSONFloat `json:"mean"`
	Std  stats.JSONFloat `json:"std"`
	Min  stats.JSONFloat `json:"min"`
	Max  stats.JSONFloat `json:"max"`
	P50  stats.JSONFloat `json:"p50"`
	P90  stats.JSONFloat `json:"p90"`
}

// MarshalJSON serializes the name alongside the summary fields, NaN-safe.
func (m MetricSummary) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonMetricSummary{
		Name: m.Name, N: m.N,
		Mean: stats.JSONFloat(m.Mean), Std: stats.JSONFloat(m.Std),
		Min: stats.JSONFloat(m.Min), Max: stats.JSONFloat(m.Max),
		P50: stats.JSONFloat(m.P50), P90: stats.JSONFloat(m.P90),
	})
}

// UnmarshalJSON restores the flattened shape, decoding null moments as NaN.
func (m *MetricSummary) UnmarshalJSON(b []byte) error {
	var j jsonMetricSummary
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	m.Name = j.Name
	m.Summary = stats.Summary{
		N: j.N, Mean: float64(j.Mean), Std: float64(j.Std),
		Min: float64(j.Min), Max: float64(j.Max),
		P50: float64(j.P50), P90: float64(j.P90),
	}
	return nil
}

// ReportCell is one axis-product cell's replicate set plus the summaries of
// every plan metric, in plan-metric order.
type ReportCell struct {
	// Index is the cell's position in canonical expansion order.
	Index int `json:"index"`
	// Key is the canonical cell identity ("name=label" pairs joined
	// with "/").
	Key string `json:"key"`
	// Labels are the per-axis "name=label" pairs.
	Labels []string `json:"labels"`
	// Runs are the replicates in replicate order — populated only when the
	// campaign ran with Options.RetainRuns; a streaming campaign folds
	// replicates into the summaries and drops them.
	Runs []Replicate `json:"runs,omitempty"`
	// Metrics are the per-metric summaries, in plan-metric order.
	Metrics []MetricSummary `json:"metrics"`
	// config is the cell's composed configuration, kept so callers need not
	// re-expand the axis product (not serialized).
	config experiment.Config
}

// Config returns the cell's composed (seedless) configuration.
func (c ReportCell) Config() experiment.Config { return c.config }

// Metric returns the summary with the given name (zero Summary, false when
// the plan did not measure it).
func (c ReportCell) Metric(name string) (stats.Summary, bool) {
	for _, m := range c.Metrics {
		if m.Name == name {
			return m.Summary, true
		}
	}
	return stats.Summary{}, false
}

// Report is a completed campaign — the only result shape: the (defaulted)
// plan and one aggregated entry per cell, in canonical expansion order.
type Report struct {
	Plan  Plan
	Cells []ReportCell
	// Telemetry is an optional self-metrics snapshot (SelfMetrics.Snapshot),
	// serialized as a trailing "telemetry" object by WriteJSON when
	// non-nil. Its values are wall-clock observations — runs/sec,
	// phase times — so embedding it trades byte-determinism of the export
	// for self-description; nil (the default) keeps output deterministic.
	Telemetry map[string]float64
}
