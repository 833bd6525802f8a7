package campaign

import (
	"flag"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"rsstcp/internal/experiment"
	"rsstcp/internal/unit"
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
// error (no usage dump) and reaches Plan.Compile as one line naming it; two
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
		err := compileErr(Plan{Axes: f.Axes()})
		if err == nil || !strings.Contains(err.Error(), c.want) || strings.Contains(err.Error(), "\n") {
			t.Errorf("%v %v: Compile = %v, want one line containing %s", c.args, c.specs, err, c.want)
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

// TestParseHopAndReverse: the -hop/-rev parsers accept the documented forms
// and refuse, with an error, what used to slip through strconv.ParseFloat:
// NaN probabilities ran lossless and exited 0, an infinite rate overflowed
// into a negative bandwidth. A negative reorder delay or reverse queue used
// to pass, and the topology resolver then ran a default in its place (a
// quarter of the hop delay; 100 packets).
func TestParseHopAndReverse(t *testing.T) {
	t.Parallel()
	h, err := ParseHop("rate=100,delay=10ms,queue=250,aqm=red,loss=0.01,reorder=0.02:2ms,dup=0.001")
	want := experiment.Hop{Rate: 100 * unit.Mbps, Delay: 10 * time.Millisecond, Queue: 250, Discipline: experiment.DiscRED,
		Loss: 0.01, ReorderP: 0.02, ReorderDelay: 2 * time.Millisecond, DuplicateP: 0.001}
	if err != nil || h != want {
		t.Errorf("full hop parsed to %+v, %v", h, err)
	}
	for _, bad := range []string{
		"rate=100,delay=10ms,queue=50,loss=NaN", "rate=100,delay=10ms,queue=50,dup=NaN",
		"rate=100,delay=10ms,queue=50,reorder=nan:1ms", "rate=100,delay=10ms,queue=50,loss=Inf",
		"rate=Inf,delay=10ms,queue=50", "rate=NaN,delay=10ms,queue=50", "rate=-5,delay=10ms,queue=50",
		"rate=100,delay=10ms,queue=50,loss=1.5", "rate=100,delay=-1ms,queue=50", "rate=100,delay=10ms,queue=0",
		"rate=100,delay=10ms", "rate=100,delay=10ms,queue=50,aqm=codel", "rate=100,rate=10,delay=1ms,queue=5",
		"rate=100,delay=10ms,queue=50,reorder=0.1:-1ms",
	} {
		if h, err := ParseHop(bad); err == nil {
			t.Errorf("ParseHop(%q) accepted as %+v", bad, h)
		}
	}
	r, err := ParseReverse("rate=10,delay=30ms,queue=50")
	if err != nil || r != (experiment.Reverse{Rate: 10 * unit.Mbps, Delay: 30 * time.Millisecond, Queue: 50}) {
		t.Errorf("full reverse parsed to %+v, %v", r, err)
	}
	for _, bad := range []string{"rate=NaN", "rate=Inf", "rate=-1", "rate=10,delay=-1ms", "delay=30ms", "rate=10,mtu=9000", "rate=10,queue=-5"} {
		if r, err := ParseReverse(bad); err == nil {
			t.Errorf("ParseReverse(%q) accepted as %+v", bad, r)
		}
	}
}

// TestAxisFlagsPathFlags: -hop and -rev compile with the stock flags. Two
// hops and -rev are one "topo" axis whose cell carries the reverse channel;
// -rev alone is the trailing "rbw" axis; -hop beside -topo is the plan's
// duplicate-axis error; and a bad value, or a chain whose delays overflow,
// rides on its axis as one line.
func TestAxisFlagsPathFlags(t *testing.T) {
	compile := func(args ...string) Plan {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		f := NewAxisFlags(fs, []string{"topo", "bw", "alg", "hop", "rev"}, nil, false)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return Plan{Axes: f.Axes()}
	}
	names := func(p Plan) (ns []string) {
		for _, a := range p.Axes {
			ns = append(ns, a.Name)
		}
		return ns
	}

	p := compile("-hop", "rate=100,delay=10ms,queue=250", "-alg", "restricted",
		"-rev", "rate=5,queue=50", "-hop", "rate=50,delay=20ms,queue=120,aqm=red")
	cells, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if got := names(p); !slices.Equal(got, []string{"topo", "alg"}) {
		t.Fatalf("-hop -hop -rev -alg compiled to %v, want [topo alg]", got)
	}
	want := experiment.Topology{Hops: []experiment.Hop{
		{Rate: 100 * unit.Mbps, Delay: 10 * time.Millisecond, Queue: 250, Discipline: experiment.DiscDropTail},
		{Rate: 50 * unit.Mbps, Delay: 20 * time.Millisecond, Queue: 120, Discipline: experiment.DiscRED},
	}, Reverse: experiment.Reverse{Rate: 5 * unit.Mbps, Queue: 50}}
	if cfg := cells[0].Config; cfg.Topology == nil || !reflect.DeepEqual(*cfg.Topology, want) {
		t.Errorf("cell topology %+v, want %+v", cfg.Topology, want)
	}

	p = compile("-rev", "rate=5,delay=30ms", "-bw", "50")
	if got := names(p); !slices.Equal(got, []string{"bw", "rbw"}) {
		t.Fatalf("-rev -bw compiled to %v, want [bw rbw]", got)
	}
	if path := p.Cells()[0].Config.Path; path.ReverseRate != 5*unit.Mbps || path.ReverseDelay != 30*time.Millisecond {
		t.Errorf("-rev alone set %+v", path)
	}

	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-topo", "parking-lot", "-hop", "rate=100,delay=10ms,queue=50"}, `duplicate axis "topo"`},
		{[]string{"-hop", "rate=100,delay=10ms,queue=50", "-hop", "rate=100,delay=10ms,queue=50,loss=NaN"}, `axis "topo": hop: loss: bad number "NaN"`},
		{[]string{"-hop", "rate=100,delay=10ms,queue=50", "-rev", "rate=-1"}, `axis "topo": rev: reverse rate`},
		{[]string{"-rev", "rate=10,mtu=9000"}, `axis "rbw": rev: unknown key "mtu"`},
		{[]string{"-hop", "rate=1,delay=2000000h,queue=5", "-hop", "rate=1,delay=2000000h,queue=5"}, `axis "topo": experiment: hop 1: Delay summed`},
	} {
		err := compile(c.args...).Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) || strings.Contains(err.Error(), "\n") {
			t.Errorf("%v: Validate = %v, want one line containing %s", c.args, err, c.want)
		}
	}
}
