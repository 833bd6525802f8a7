package campaign

import (
	"math"
	"slices"
	"strings"
	"testing"

	"rsstcp/internal/experiment"
	"rsstcp/internal/lifecycle"
)

// FuzzParseAxis: the CLIs' one axis parser never panics, an axis it rejects
// carries its error to Plan.Validate, and for an axis it accepts (a) a value
// Plan.Compile rejects is one that outOfRange flags, and vice versa, and
// (b) — except for the bandwidth axes, whose labels carry a unit the parser
// does not take — the axis re-parses from its own labels to the same labels.
// outOfRange is written apart from experiment.Config.Validate, which
// Plan.Compile asks, so the two hold each other to one domain. The
// non-finite seeds in testdata/fuzz used to be accepted: `-loss NaN` ran and
// printed a NaN cell, `-load Inf` hung; so did the two -huge ones, whose
// mutators then died allocating (`-flows 3000000000` asked for a 408 GB flow
// list). A value is applied to a configuration here, so the flow count's
// bound also caps what one execution allocates (a 1<<20-entry flow list,
// ~140 MB).
func FuzzParseAxis(f *testing.F) {
	f.Fuzz(func(t *testing.T, name, csv string) {
		a := ParseAxis(name, strings.Split(csv, ","))
		if a.err != nil {
			if err := (Plan{Axes: []Axis{a}}).Validate(); err != a.err {
				t.Fatalf("%s=%q: Plan.Validate = %v, want the axis's own error %v", name, csv, err, a.err)
			}
			return
		}
		labels := make([]string, len(a.Values))
		for i, v := range a.Values {
			labels[i] = v.Label
			if v.Label == "" || strings.ContainsAny(v.Label, "=/") {
				continue // label syntax is Plan.Validate's own rule, not the domain's
			}
			err := compileErr(Plan{Axes: []Axis{{Name: a.Name, Values: []Value{v}}}})
			var cfg experiment.Config
			v.Set(&cfg)
			if msg := outOfRange(cfg); (err != nil) != (msg != "") {
				t.Fatalf("%s=%q value %q: Plan.Compile = %v, outOfRange = %q", name, csv, v.Label, err, msg)
			}
		}
		if name == "bw" || name == "nic" || name == "rbw" {
			return
		}
		again := ParseAxis(name, labels)
		if again.err != nil {
			t.Fatalf("%s=%q: labels %q do not re-parse: %v", name, csv, labels, again.err)
		}
		for i, v := range again.Values {
			if v.Label != labels[i] {
				t.Fatalf("%s=%q: label not a fixed point: %q -> %q", name, csv, labels[i], v.Label)
			}
		}
	})
}

// outOfRange names the first field of a one-axis configuration that holds a
// non-finite or out-of-domain value ("" when there is none). Zero means the
// axis left the field alone.
func outOfRange(cfg experiment.Config) string {
	unit := func(v float64) bool { return v >= 0 && v <= 1 } // false for NaN
	p := cfg.Path
	switch {
	case !unit(p.Loss):
		return "Path.Loss"
	case p.Bottleneck < 0 || p.NICRate < 0 || p.ReverseRate < 0:
		return "a negative rate"
	case p.RTT < 0 || p.RouterQueue < 0 || p.TxQueueLen < 0 || p.Hops < 0:
		return "a negative path dimension"
	case p.Hops > experiment.MaxHops:
		return "Path.Hops beyond MaxHops"
	case p.AQM != "" && !slices.Contains(experiment.QueueDisciplines(), p.AQM):
		return "Path.AQM"
	}
	for _, fl := range cfg.Flows {
		if fl.Alg != "" && !slices.Contains(experiment.Algorithms(), fl.Alg) {
			return "an unknown algorithm"
		}
		if !unit(fl.SetpointFraction) || fl.Tick < 0 || fl.MSS < 0 || fl.Bytes < 0 {
			return "a flow field out of range"
		}
	}
	if ch := cfg.Churn; ch != nil {
		if !(ch.Load >= 0) || math.IsInf(ch.Load, 0) {
			return "Churn.Load"
		}
		if ch.Arrivals != "" {
			if _, err := lifecycle.ParseSource(ch.Arrivals); err != nil {
				return "Churn.Arrivals"
			}
		}
		if ch.Size != "" {
			if _, err := lifecycle.ParseSizeDist(ch.Size); err != nil {
				return "Churn.Size"
			}
		}
	}
	return ""
}
