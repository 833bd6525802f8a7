package campaign

import (
	"flag"
	"fmt"
	"slices"
	"strings"
)

// AxisFlags is the stock-axis surface of a command line: one flag per named
// stock axis, each value parsed by that axis's declaration, compiled into a
// plan's axes in canonical order. Errors ride on the axes, so a bad value
// reaches Plan.Validate as a one-line error instead of flag's usage dump.
type AxisFlags struct {
	lists    bool
	defaults map[string]string
	set      map[string][]Axis // by stock name: its flag's axis, then pinned ones
	extra    []Axis            // Extra specs, in the order given
}

// NewAxisFlags registers on fs a flag for each named stock axis. With lists,
// a flag takes a comma list of values (a sweep); without, one value, and a
// boolean axis is a flag that may stand alone (-sack). defaults holds the
// value of a flag that is not set, or nothing; it is read when Axes
// compiles, so a command may withdraw a default after parsing.
func NewAxisFlags(fs *flag.FlagSet, names []string, defaults map[string]string, lists bool) *AxisFlags {
	f := &AxisFlags{lists: lists, defaults: defaults, set: map[string][]Axis{}}
	for _, n := range names {
		help := AxisHelp(n)
		if lists {
			help += " (comma list)"
		}
		if def, ok := defaults[n]; ok {
			help += " (default " + def + ")"
		}
		keep := func(s string) error { f.set[n] = []Axis{flagAxis(n, s, lists)}; return nil }
		if _, isBool := stockAxes[n].(dim[bool]); isBool && !lists {
			fs.BoolFunc(n, help, keep)
		} else {
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

// Set reports whether the named flag was given.
func (f *AxisFlags) Set(name string) bool { return len(f.set[name]) > 0 }

// Pin puts a prebuilt axis, named after a stock axis, in that axis's place,
// as if its flag had been set (a -hop chain is a "topo" axis). Call it after
// parsing; a flag of the same name that was also set stays, and the plan
// rejects the duplicate.
func (f *AxisFlags) Pin(a Axis) { f.set[a.Name] = append(f.set[a.Name], a) }

// Extra adds an axis spelled name=v1,v2 (the -axis flag). Extra axes follow
// the flag axes in the order given.
func (f *AxisFlags) Extra(spec string) {
	a := Axis{Name: spec, err: fmt.Errorf("campaign: bad axis %q: want name=v1,v2", spec)}
	if name, vals, ok := strings.Cut(spec, "="); ok {
		a = flagAxis(name, vals, true)
	}
	f.extra = append(f.extra, a)
}

// Axes compiles the plan's axes: in canonical order, each set flag and
// pinned axis, and each default that no given axis — set, pinned, extra or
// trail — names or lists in its AxisConflicts entry; then the Extra axes,
// then trail.
func (f *AxisFlags) Axes(trail ...Axis) []Axis {
	given := slices.Concat(f.extra, trail)
	for _, as := range f.set {
		given = append(given, as...)
	}
	displaced := func(name string) bool {
		return slices.ContainsFunc(given, func(a Axis) bool {
			return a.Name == name || slices.Contains(AxisConflicts(a.Name), name)
		})
	}
	var axes []Axis
	for _, d := range canonicalOrder {
		name, _ := d.decl()
		if as := f.set[name]; len(as) > 0 {
			axes = append(axes, as...)
		} else if def, ok := f.defaults[name]; ok && !displaced(name) {
			axes = append(axes, flagAxis(name, def, f.lists))
		}
	}
	return append(append(axes, f.extra...), trail...)
}
