package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"rsstcp/internal/experiment"
)

// streamJSON writes {"<headName>": <head>, "<listName>": [item, ...]} with
// two-space indentation and a trailing newline, marshaling one list item at
// a time. The output is byte-identical to
// json.NewEncoder(w).SetIndent("", "  ").Encode of the equivalent struct
// (see TestStreamedReportJSONMatchesEncoder) while the peak encoding buffer
// is one cell, not the whole report — what keeps a retained-runs export of
// a large campaign from materializing twice.
// A nil tail value emits exactly the two-key shape; a non-nil tail appends
// `"<tailName>": <tail>` after the list, so opt-in extras (the telemetry
// snapshot) never perturb byte-pinned exports.
func streamJSON(w io.Writer, headName string, head any, listName string, n int, item func(int) any, tailName string, tail any) error {
	hb, err := json.MarshalIndent(head, "  ", "  ")
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "{\n  %q: %s,\n  %q: [", headName, hb, listName); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		sep := ","
		if i == 0 {
			sep = ""
		}
		ib, err := json.MarshalIndent(item(i), "    ", "  ")
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s\n    %s", sep, ib); err != nil {
			return err
		}
	}
	suffix := "\n  ]"
	if n == 0 {
		suffix = "]"
	}
	if _, err := io.WriteString(w, suffix); err != nil {
		return err
	}
	if tail != nil {
		tb, err := json.MarshalIndent(tail, "  ", "  ")
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, ",\n  %q: %s", tailName, tb); err != nil {
			return err
		}
	}
	_, err = io.WriteString(w, "\n}\n")
	return err
}

// streamCSV writes a header and one formatted row per cell: each row's cells
// rendered by experiment.FormatRow and joined by commas, streamed without
// materializing the rows.
func streamCSV(w io.Writer, header []string, n int, row func(int) []any) error {
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if _, err := fmt.Fprintln(w, strings.Join(experiment.FormatRow(row(i)...), ",")); err != nil {
			return err
		}
	}
	return nil
}

// jsonReport documents the serialized shape of a campaign: the plan
// flattened to axis/metric names so the file is self-describing. WriteJSON
// streams it cell by cell.
type jsonReport struct {
	Plan  jsonPlan     `json:"plan"`
	Cells []ReportCell `json:"cells"`
}

type jsonPlan struct {
	Axes       []jsonAxis `json:"axes"`
	Metrics    []string   `json:"metrics"`
	Replicates int        `json:"replicates"`
	Duration   string     `json:"duration"`
	BaseSeed   uint64     `json:"base_seed"`
}

type jsonAxis struct {
	Name   string   `json:"name"`
	Labels []string `json:"labels"`
}

// WriteJSON writes the full report — plan, per-cell metric summaries, and
// (when the campaign retained them) per-replicate runs — as indented JSON,
// streaming per cell. Output is byte-deterministic for a given plan
// regardless of worker count.
func (r *Report) WriteJSON(w io.Writer) error {
	p := r.Plan.withDefaults()
	jp := jsonPlan{
		Replicates: p.Replicates,
		Duration:   p.Duration.String(),
		BaseSeed:   p.BaseSeed,
	}
	for _, a := range p.Axes {
		ja := jsonAxis{Name: a.Name}
		for _, v := range a.Values {
			ja.Labels = append(ja.Labels, v.Label)
		}
		jp.Axes = append(jp.Axes, ja)
	}
	for _, m := range p.Metrics {
		jp.Metrics = append(jp.Metrics, m.Name)
	}
	var tail any
	if r.Telemetry != nil {
		tail = r.Telemetry
	}
	return streamJSON(w, "plan", jp, "cells", len(r.Cells), func(i int) any {
		return r.Cells[i]
	}, "telemetry", tail)
}

// reportHeader builds the aggregate table's column set: one column
// per axis, then mean and std per plan metric.
func reportHeader(p Plan) []string {
	var h []string
	for _, a := range p.Axes {
		h = append(h, a.Name)
	}
	for _, m := range p.Metrics {
		h = append(h, m.Name+"-mean", m.Name+"-std")
	}
	return h
}

// reportRow builds one aggregate table row.
func reportRow(c ReportCell) []any {
	row := make([]any, 0, len(c.Labels)+2*len(c.Metrics))
	for _, l := range c.Labels {
		if _, label, ok := strings.Cut(l, "="); ok {
			row = append(row, label)
		} else {
			row = append(row, l)
		}
	}
	for _, m := range c.Metrics {
		row = append(row, m.Mean, m.Std)
	}
	return row
}

// Table renders the report as an experiment.Table: one column per axis, then
// mean and std columns for every plan metric, one row per cell in canonical
// expansion order.
func (r *Report) Table() *experiment.Table {
	p := r.Plan.withDefaults()
	t := &experiment.Table{
		Title: fmt.Sprintf("Campaign: %d cells × %d replicates (%v per run)",
			len(r.Cells), p.Replicates, p.Duration),
		Header: reportHeader(p),
		Notes: []string{
			fmt.Sprintf("base seed %d; replicate seeds derived per cell key", p.BaseSeed),
		},
	}
	for _, c := range r.Cells {
		t.Add(reportRow(c)...)
	}
	return t
}

// WriteCSV writes the report's aggregate table as CSV, one cell at a time.
func (r *Report) WriteCSV(w io.Writer) error {
	p := r.Plan.withDefaults()
	return streamCSV(w, reportHeader(p), len(r.Cells), func(i int) []any {
		return reportRow(r.Cells[i])
	})
}
