package campaign

import (
	"flag"
	"slices"
	"strings"
	"testing"
)

// TestCanonicalOrder: the canonical order lists every stock axis once, and
// the rule table accepts it — for every rule row, each owner comes before
// each of its mustFollow axes — so no CLI can be refused only for where the
// flag compiler put an axis.
func TestCanonicalOrder(t *testing.T) {
	pos := map[string]int{}
	for i, d := range canonicalOrder {
		name, _ := d.decl()
		if _, dup := pos[name]; dup {
			t.Errorf("%q appears twice in the canonical order", name)
		}
		pos[name] = i
	}
	if len(pos) != len(stockAxes) {
		t.Errorf("canonical order lists %d axes, the registry %d", len(pos), len(stockAxes))
	}
	for _, r := range axisRules {
		for _, owner := range r.owners {
			for _, f := range r.mustFollow {
				if pos[owner] > pos[f] {
					t.Errorf("canonical order puts %q before its owner %q", f, owner)
				}
			}
		}
	}
}

// compileFlags registers names on a fresh FlagSet, parses args and returns
// the compiled axis names with the compiler, extras given as -axis specs.
func compileFlags(t *testing.T, names []string, defaults map[string]string, args []string, specs ...string) ([]string, *AxisFlags) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := NewAxisFlags(fs, names, defaults, true)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		f.Extra(s)
	}
	var out []string
	for _, a := range f.Axes() {
		out = append(out, a.Name)
	}
	return out, f
}

// TestAxisFlagsDefaults: a default is dropped when a given axis sweeps it or
// lists it among its conflicts, and only then; a flag set on purpose stays,
// so the plan rejects what it cannot run.
func TestAxisFlagsDefaults(t *testing.T) {
	names := []string{"topo", "load", "bw", "rtt", "ifq", "alg", "flows"}
	defaults := map[string]string{"bw": "10", "rtt": "20ms", "ifq": "100", "alg": "standard", "flows": "1"}
	for _, c := range []struct {
		args, specs []string
		want        []string
	}{
		{nil, nil, []string{"bw", "rtt", "ifq", "alg", "flows"}},
		// Set flags stack in canonical order, whatever the command line's.
		{[]string{"-alg", "restricted", "-load", "0.5"}, nil, []string{"load", "bw", "rtt", "ifq", "alg", "flows"}},
		// A topology displaces the path defaults it conflicts with.
		{[]string{"-topo", "parking-lot"}, nil, []string{"topo", "ifq", "alg", "flows"}},
		// An -axis spec displaces a default of its name or of its conflicts,
		// and follows the flag axes.
		{nil, []string{"bw=50", "matchup=standard+restricted"}, []string{"rtt", "ifq", "bw", "matchup"}},
		{nil, []string{"topo=parking-lot"}, []string{"ifq", "alg", "flows", "topo"}},
		// A flag set on purpose is never dropped.
		{[]string{"-topo", "parking-lot", "-bw", "50"}, nil, []string{"topo", "bw", "ifq", "alg", "flows"}},
		{[]string{"-bw", "50"}, []string{"bw=10"}, []string{"bw", "rtt", "ifq", "alg", "flows", "bw"}},
	} {
		got, _ := compileFlags(t, names, defaults, c.args, c.specs...)
		if !slices.Equal(got, c.want) {
			t.Errorf("%v %v: axes %v, want %v", c.args, c.specs, got, c.want)
		}
	}
	// A default withdrawn after parsing is not compiled.
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	d := map[string]string{"flows": "1"}
	f := NewAxisFlags(fs, names, d, true)
	delete(d, "flows")
	if axes := f.Axes(); len(axes) != 0 {
		t.Errorf("withdrawn default compiled: %v", axes)
	}
}

// TestAxisFlagsErrorsRideOnAxes: a bad value or -axis spec parses without
// error (no usage dump) and reaches Plan.Validate as one line naming it; two
// set flags the rule table forbids together are the plan's error too.
func TestAxisFlagsErrorsRideOnAxes(t *testing.T) {
	names := []string{"topo", "bw", "alg", "sack"}
	for _, c := range []struct {
		args  []string
		specs []string
		want  string
	}{
		{[]string{"-bw", "-5"}, nil, `axis "bw"`},
		{[]string{"-bw", ""}, nil, `axis "bw": no values`},
		{[]string{"-alg", "bogus"}, nil, `unknown algorithm "bogus"`},
		{nil, []string{"bogus=1"}, `unknown axis "bogus"`},
		{nil, []string{"bw"}, `bad axis "bw": want name=v1,v2`},
		{[]string{"-topo", "parking-lot", "-bw", "50"}, nil, "conflicts with"},
		{[]string{"-alg", "standard"}, []string{"alg=restricted"}, `duplicate axis "alg"`},
	} {
		_, f := compileFlags(t, names, nil, c.args, c.specs...)
		err := Plan{Axes: f.Axes()}.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) || strings.Contains(err.Error(), "\n") {
			t.Errorf("%v %v: Validate = %v, want one line containing %s", c.args, c.specs, err, c.want)
		}
	}
	// Single-valued flags take the whole value as one token, and a boolean
	// axis may stand alone.
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := NewAxisFlags(fs, names, nil, false)
	if err := fs.Parse([]string{"-sack", "-bw", "10,50"}); err != nil {
		t.Fatal(err)
	}
	axes := f.Axes()
	if len(axes) != 2 || axes[0].err == nil || axes[1].Name != "sack" || axes[1].Values[0].Label != "true" {
		t.Errorf("single-valued flags compiled to %+v", axes)
	}
}
