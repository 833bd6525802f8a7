package campaign

import (
	"cmp"
	"flag"
	"fmt"
	"maps"
	"slices"
	"strings"

	"rsstcp/internal/experiment"
)

// AxisFlags is the stock-axis surface of a command line: one flag per named
// stock axis, each value parsed by that axis's declaration, compiled into a
// plan's axes in canonical order, and the path flags -hop and -rev. Errors
// ride on the axes, so a bad value reaches Plan.Compile as a one-line error
// instead of flag's usage dump.
type AxisFlags struct {
	lists    bool
	defaults map[string]string
	set      map[string]Axis // by stock name
	hops     []string        // -hop values, in the order given
	rev      string          // the -rev value; empty is the ideal wire
	extra    []Axis          // Extra specs, in the order given
}

// NewAxisFlags registers on fs a flag for each named stock axis, and -hop
// and -rev if named. With lists, an axis flag takes a comma list of values
// (a sweep); without, one value, and a boolean axis is a flag that may
// stand alone (-sack). defaults holds the value of a flag that is not set,
// or nothing; it is read when Axes compiles, so a command may withdraw a
// default after parsing.
func NewAxisFlags(fs *flag.FlagSet, names []string, defaults map[string]string, lists bool) *AxisFlags {
	f := &AxisFlags{lists: lists, defaults: defaults, set: map[string]Axis{}}
	for _, n := range names {
		help := AxisHelp(n)
		if lists {
			help += " (comma list)"
		}
		if def, ok := defaults[n]; ok {
			help += " (default " + def + ")"
		}
		keep := func(s string) error { f.set[n] = flagAxis(n, s, lists); return nil }
		switch _, isBool := stockAxes[n].(dim[bool]); {
		case n == "hop":
			fs.Func(n, hopHelp, func(s string) error { f.hops = append(f.hops, s); return nil })
		case n == "rev":
			fs.StringVar(&f.rev, n, "", revHelp)
		case isBool && !lists:
			fs.BoolFunc(n, help, keep)
		default:
			fs.Func(n, help, keep)
		}
	}
	return f
}

// flagAxis compiles one flag value, a comma list or a single value, for the
// named axis.
func flagAxis(name, s string, list bool) Axis {
	if !list {
		return ParseAxis(name, []string{s})
	}
	var tokens []string
	for _, t := range strings.Split(s, ",") {
		if t = strings.TrimSpace(t); t != "" {
			tokens = append(tokens, t)
		}
	}
	return ParseAxis(name, tokens)
}

// Set reports whether the named stock-axis flag was given.
func (f *AxisFlags) Set(name string) bool {
	_, ok := f.set[name]
	return ok
}

// Extra adds an axis spelled name=v1,v2 (the -axis flag). Extra axes follow
// the flag axes in the order given.
func (f *AxisFlags) Extra(spec string) {
	a := Axis{Name: spec, err: fmt.Errorf("campaign: bad axis %q: want name=v1,v2", spec)}
	if name, vals, ok := strings.Cut(spec, "="); ok {
		a = flagAxis(name, vals, true)
	}
	f.extra = append(f.extra, a)
}

// Axes compiles the plan's axes: in canonical order, each set flag — the
// -hop chain in the place of "topo", after -topo's axis if both are given,
// which the plan rejects as a duplicate — and each default that no given
// axis names or lists in its AxisConflicts entry; then the Extra axes; then
// -rev's "rbw" axis when no -hop chain carries the reverse channel.
func (f *AxisFlags) Axes() []Axis {
	topo, rbw := f.pathAxes()
	given := slices.Concat(f.extra, topo, rbw)
	for _, a := range f.set {
		given = append(given, a)
	}
	displaced := func(name string) bool {
		return slices.ContainsFunc(given, func(a Axis) bool {
			return a.Name == name || slices.Contains(AxisConflicts(a.Name), name)
		})
	}
	var axes []Axis
	for _, d := range canonicalOrder {
		name, _ := d.decl()
		if a, ok := f.set[name]; ok {
			axes = append(axes, a)
		} else if def, ok := f.defaults[name]; ok && !displaced(name) {
			axes = append(axes, flagAxis(name, def, f.lists))
		}
		if name == dimTopo.name {
			axes = append(axes, topo...)
		}
	}
	return slices.Concat(axes, f.extra, rbw)
}

// pathAxes compiles -hop and -rev. The hops are one custom topology, a
// single-valued "topo" axis, which carries the reverse channel; -rev alone
// is an "rbw" axis that refines whichever path the axes before it built. A
// value that does not parse is the axis's error.
func (f *AxisFlags) pathAxes() (topo, rbw []Axis) {
	var t experiment.Topology
	var err error
	for _, s := range f.hops {
		h, herr := ParseHop(s)
		t.Hops, err = append(t.Hops, h), cmp.Or(err, herr)
	}
	if f.rev != "" {
		var rerr error
		t.Reverse, rerr = ParseReverse(f.rev)
		err = cmp.Or(err, rerr)
	}
	switch {
	case len(t.Hops) > 0:
		topo = []Axis{parsed(dimTopo.name, err, func() Axis { return AxisTopologyValue("custom", t) })}
	case f.rev != "":
		rbw = []Axis{parsed(dimRBW.name, err, func() Axis { return AxisReverseValue(t.Reverse) })}
	}
	return topo, rbw
}

// parsed is build's axis, or, when err is not nil, an axis of the name that
// carries err.
func parsed(name string, err error, build func() Axis) Axis {
	if err == nil {
		return build()
	}
	a := Axis{Name: name}
	a.fail(err)
	return a
}

// The -hop and -rev value syntaxes.
const (
	hopHelp = "add one forward hop to a custom topology, as rate=Mbps,delay=D,queue=N[,aqm=red][,loss=P][,reorder=P:D][,dup=P] (repeatable; the hops are one 'topo' axis value)"
	revHelp = "real reverse channel as rate=Mbps[,delay=D][,queue=N] (default: ideal wire)"
)

// ParseHop parses one -hop value, comma-separated key=value pairs
//
//	rate=100,delay=10ms,queue=250[,aqm=red][,loss=0.01][,reorder=0.02:2ms][,dup=0.001]
//
// each value in the syntax of the stock axis of its quantity (rate in Mbps
// as bw's). rate, delay and queue are required, and the hop must pass
// experiment.Hop.Validate.
func ParseHop(s string) (experiment.Hop, error) {
	var h experiment.Hop
	err := parseKV("hop", s, []string{"rate", "delay", "queue"}, map[string]func(string) error{
		"rate":  into(mbps, &h.Rate),
		"delay": into(duration, &h.Delay),
		"queue": into(integer, &h.Queue),
		"aqm":   into(named[experiment.QueueDiscipline](), &h.Discipline),
		"loss":  into(number, &h.Loss),
		"reorder": func(s string) error {
			p, d, hasDelay := strings.Cut(s, ":")
			if err := into(number, &h.ReorderP)(p); err != nil || !hasDelay {
				return err
			}
			return into(duration, &h.ReorderDelay)(d)
		},
		"dup": into(number, &h.DuplicateP),
	})
	if err != nil {
		return experiment.Hop{}, err
	}
	if err := h.Validate(); err != nil {
		return experiment.Hop{}, fmt.Errorf("hop: %w", err)
	}
	return h, nil
}

// ParseReverse parses one -rev value, comma-separated key=value pairs
//
//	rate=10[,delay=30ms][,queue=50]
//
// as ParseHop does; rate (in Mbps) is required.
func ParseReverse(s string) (experiment.Reverse, error) {
	var r experiment.Reverse
	err := parseKV("rev", s, []string{"rate"}, map[string]func(string) error{
		"rate":  into(mbps, &r.Rate),
		"delay": into(duration, &r.Delay),
		"queue": into(integer, &r.Queue),
	})
	if err != nil {
		return experiment.Reverse{}, err
	}
	if err := r.Validate(); err != nil {
		return experiment.Reverse{}, fmt.Errorf("rev: %w", err)
	}
	return r, nil
}

// into parses a value with k into dst.
func into[T any](k kind[T], dst *T) func(string) error {
	return func(s string) (err error) {
		*dst, err = k.parse(s)
		return err
	}
}

// parseKV walks comma-separated key=value pairs, handing each value to its
// field's parser, and refuses unknown and duplicate keys and a missing
// required one.
func parseKV(what, s string, required []string, fields map[string]func(string) error) error {
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return fmt.Errorf("%s: want key=value, got %q", what, part)
		}
		if seen[key] {
			return fmt.Errorf("%s: duplicate key %q", what, key)
		}
		seen[key] = true
		parse, ok := fields[key]
		if !ok {
			return fmt.Errorf("%s: unknown key %q (want %s)", what, key, strings.Join(slices.Sorted(maps.Keys(fields)), ", "))
		}
		if err := parse(val); err != nil {
			return fmt.Errorf("%s: %s: %v", what, key, err)
		}
	}
	for _, req := range required {
		if !seen[req] {
			return fmt.Errorf("%s: missing required key %q", what, req)
		}
	}
	return nil
}
