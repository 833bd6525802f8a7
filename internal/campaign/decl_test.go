package campaign

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"rsstcp/internal/experiment"
	"rsstcp/internal/unit"
)

// stockAxis is NewAxis for values the test knows to be valid.
func stockAxis(t testing.TB, name string, values ...any) Axis {
	t.Helper()
	a := NewAxis(name, values...)
	if a.err != nil {
		t.Fatal(a.err)
	}
	return a
}

// declCases holds, per stock axis, a representative value as a native Go
// value and as a CLI token, and a value outside the domain three ways: as a
// native value, as a token, and built in code through the declaration. sack
// has no domain to leave.
var declCases = map[string]struct {
	native    any
	text      string
	badNative any
	badText   string
	badBuilt  Axis
}{
	"bw":       {100 * unit.Mbps, "100", unit.Bandwidth(0), "0", dimBW.axis(0)},
	"rtt":      {60 * time.Millisecond, "60ms", time.Duration(0), "0s", dimRTT.axis(0)},
	"rq":       {250, "250", 0, "0", dimRQ.axis(0)},
	"ifq":      {100, "100", -1, "-1", dimIFQ.axis(-1)},
	"loss":     {0.01, "0.01", 1.5, "1.5", dimLoss.axis(1.5)},
	"nic":      {unit.Gbps, "1000", unit.Bandwidth(0), "0", dimNIC.axis(0)},
	"hops":     {3, "3", experiment.MaxHops + 1, "2000000000", dimHops.axis(experiment.MaxHops + 1)},
	"alg":      {experiment.AlgRestricted, "restricted", experiment.Algorithm("bogus"), "bogus", dimAlg.axis("bogus")},
	"flows":    {2, "2", experiment.MaxFlows + 1, "3000000000", dimFlows.axis(experiment.MaxFlows + 1)},
	"matchup":  {[]experiment.Algorithm{experiment.AlgStandard, experiment.AlgRestricted}, "standard+restricted", []experiment.Algorithm{}, "standard+bogus", dimMatchup.axis(nil)},
	"setpoint": {0.7, "0.7", 0.0, "0", dimSetpoint.axis(0)},
	"tick":     {5 * time.Millisecond, "5ms", time.Duration(0), "0s", dimTick.axis(0)},
	"mss":      {9000, "9000", 0, "0", dimMSS.axis(0)},
	"sack":     {native: true, text: "true"},
	"bytes":    {int64(1 << 20), "1048576", int64(-1), "-1", dimBytes.axis(-1)},
	"load":     {0.8, "0.8", 0.0, "0", dimLoad.axis(0)},
	"arrivals": {"poisson:50", "poisson:50", "poisson:0", "poisson:0", dimArrivals.axis("poisson:0")},
	"fsize":    {"exp:100k", "exp:100k", "exp:notasize", "exp:notasize", dimFSize.axis("exp:notasize")},
	"rbw":      {5 * unit.Mbps, "5", unit.Bandwidth(0), "0", dimRBW.axis(0)},
	"aqm":      {experiment.DiscRED, "red", experiment.QueueDiscipline("bogus"), "bogus", dimAQM.axis("bogus")},
	"topo":     {"parking-lot", "parking-lot", "bogus", "bogus", dimTopo.axis("bogus")},
}

// TestStockAxisDeclarations holds every registered axis to the contract of
// its one declaration: NewAxis and ParseAxis agree on label and effect, a
// domain violation rides on the axis to Plan.Compile however the axis was
// built, labels re-parse to themselves, and the help text is there —
// listing, where the values belong to another package, all of them.
func TestStockAxisDeclarations(t *testing.T) {
	for _, name := range StockAxisNames() {
		c, ok := declCases[name]
		if !ok {
			t.Errorf("stock axis %q has no entry in declCases", name)
			continue
		}
		native, parsed := stockAxis(t, name, c.native), stockAxis(t, name, c.text)
		if n, p := native.Values[0].Label, parsed.Values[0].Label; n != p {
			t.Errorf("%s: NewAxis labels %q, ParseAxis %q", name, n, p)
		}
		var fromNative, fromText experiment.Config
		native.Values[0].Set(&fromNative)
		parsed.Values[0].Set(&fromText)
		if !reflect.DeepEqual(fromNative, fromText) {
			t.Errorf("%s: native and parsed values configure differently:\n%+v\n%+v", name, fromNative, fromText)
		}
		// Bandwidth labels carry a unit the parser does not take.
		if label := native.Values[0].Label; name != "bw" && name != "nic" && name != "rbw" {
			again := ParseAxis(name, []string{label})
			if again.err != nil || again.Values[0].Label != label {
				t.Errorf("%s: label %q is not a fixed point of ParseAxis: %+v, %v", name, label, again.Values, again.err)
			}
		}
		if c.badNative != nil {
			for _, bad := range []Axis{NewAxis(name, c.badNative), ParseAxis(name, []string{c.badText})} {
				if err := compileErr(Plan{Axes: []Axis{bad}}); err == nil || !strings.Contains(err.Error(), name) {
					t.Errorf("%s: Plan.Compile on %+v = %v", name, bad.Values, err)
				}
			}
			if len(c.badBuilt.Values) != 1 {
				t.Errorf("%s: an out-of-domain value built in code should still yield its value, got %d", name, len(c.badBuilt.Values))
			}
			if err := compileErr(Plan{Axes: []Axis{c.badBuilt}}); err == nil || !strings.Contains(err.Error(), name) {
				t.Errorf("%s: Plan.Compile on an out-of-domain axis built in code = %v", name, err)
			}
		}
		if AxisHelp(name) == "" {
			t.Errorf("%s: no help text", name)
		}
	}
	owned := map[string][]string{"topo": experiment.TopologyPresets()}
	for _, a := range experiment.Algorithms() {
		owned["alg"] = append(owned["alg"], string(a))
	}
	for _, d := range experiment.QueueDisciplines() {
		owned["aqm"] = append(owned["aqm"], string(d))
	}
	for name, values := range owned {
		for _, v := range values {
			if !strings.Contains(AxisHelp(name), v) {
				t.Errorf("%s help %q omits %q", name, AxisHelp(name), v)
			}
			if err := ParseAxis(name, []string{v}).err; err != nil {
				t.Errorf("%s rejects %q, which its owner lists: %v", name, v, err)
			}
		}
	}
}

// TestAxisRuleTable: the rule table names only registered axes, and each
// row does what Plan.Validate's matchup, topo and churn blocks did: a
// conflict is rejected in either order, a follower only ahead of its owner.
func TestAxisRuleTable(t *testing.T) {
	axis := func(name string) Axis { return stockAxis(t, name, declCases[name].native) }
	validate := func(names ...string) error {
		var p Plan
		for _, n := range names {
			p.Axes = append(p.Axes, axis(n))
		}
		return p.Validate()
	}
	for _, r := range axisRules {
		for _, n := range slices.Concat(r.owners, r.conflicts, r.mustFollow) {
			if _, ok := stockAxes[n]; !ok {
				t.Fatalf("rule for %v names %q, which is not a stock axis", r.owners, n)
			}
		}
		for _, owner := range r.owners {
			if err := validate(owner); err != nil {
				t.Errorf("%s alone rejected: %v", owner, err)
			}
			if !reflect.DeepEqual(AxisConflicts(owner), r.conflicts) {
				t.Errorf("AxisConflicts(%q) = %v, want %v", owner, AxisConflicts(owner), r.conflicts)
			}
			for _, c := range r.conflicts {
				for _, order := range [][]string{{owner, c}, {c, owner}} {
					if err := validate(order...); err == nil || !strings.Contains(err.Error(), r.conflictWhy) {
						t.Errorf("plan %v: err = %v, want the %s conflict", order, err, owner)
					}
				}
			}
			for _, f := range r.mustFollow {
				if err := validate(f, owner); err == nil || !strings.Contains(err.Error(), r.orderWhy) {
					t.Errorf("%s before %s: err = %v, want the ordering error", f, owner, err)
				}
				if err := validate(owner, f); err != nil {
					t.Errorf("%s after %s rejected: %v", f, owner, err)
				}
			}
		}
	}
	if got := AxisConflicts("bw"); got != nil {
		t.Errorf("AxisConflicts(bw) = %v, want none", got)
	}
}
