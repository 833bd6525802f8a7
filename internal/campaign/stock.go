package campaign

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"time"

	"rsstcp/internal/experiment"
	"rsstcp/internal/lifecycle"
	"rsstcp/internal/unit"
)

// This file declares the stock axes: every dimension the engine knows how to
// sweep out of the box is one dim value — name, help, value kind, the check
// of what a config cannot express, and mutator, each written once — and the
// typed builder (dim.axis), NewAxis (native Go values), ParseAxis
// (command-line tokens) and the CLIs' flags (flags.go) all run off that
// declaration. Each returns an Axis that carries
// its first error for Plan.Validate, so a plan is one literal. Which stock
// axes may not share a plan, or must keep an order, is the rule table in
// rules.go.
//
// The first seven (bw, rtt, rq, ifq, loss, alg, flows) are the Grid fields
// and the CLI's classic flags; their labels are pinned by the Plan golden,
// because cell keys feed the derived replicate seeds.

// kind is how one Go value type enters and leaves an axis: the parser for a
// command-line token, the native Go types accepted in its place, and the
// canonical label.
type kind[T any] struct {
	parse func(string) (T, error)
	// widen converts a non-string Go value; false if not of a type it takes.
	widen func(any) (T, bool)
	label func(T) string
}

// dim declares one stock dimension over values of type T.
type dim[T any] struct {
	name string
	// help is a one-line value-syntax hint for CLIs.
	help string
	kind[T]
	// check returns why a value cannot be a point of this axis although the
	// config it sets may be valid. Whether a config is in the domain is
	// experiment.Config.Validate's to say, and Plan.Compile asks it about
	// every cell; check holds only what a config cannot express: a zero
	// that would run the default under a "0" label (nonzero), the flow count
	// that sizes the mutator's allocation (flows), an empty algorithm set
	// (matchup) and a preset name (topo). Nil means no such check.
	check func(T) error
	set   func(*experiment.Config, T)
}

// stockDim is a dim with its value type erased, as the name registry holds it.
type stockDim interface {
	decl() (name, help string)
	build(raw []any) Axis
}

func (d dim[T]) decl() (name, help string) { return d.name, d.help }

// axis builds the dimension's axis from typed values. A value check refuses
// is recorded on the axis (Axis.fail) for Plan.Validate to surface, so
// code-built plans keep a value-returning constructor.
func (d dim[T]) axis(vs ...T) Axis {
	a := Axis{Name: d.name}
	for _, v := range vs {
		if d.check != nil {
			a.fail(d.check(v))
		}
		a.Values = append(a.Values, Val(d.label(v), func(cfg *experiment.Config) { d.set(cfg, v) }))
	}
	return a
}

// convert turns one loosely typed value into a T: strings go through the
// token parser, anything else through widen.
func (d dim[T]) convert(raw any) (v T, err error) {
	if s, ok := raw.(string); ok {
		return d.parse(s)
	}
	if v, ok := d.widen(raw); ok {
		return v, nil
	}
	return v, fmt.Errorf("cannot use a value of type %T", raw)
}

// build is axis over loosely typed values. A value that does not convert
// leaves an axis with no values and that failure as its error.
func (d dim[T]) build(raw []any) Axis {
	vs := make([]T, len(raw))
	for i, r := range raw {
		v, err := d.convert(r)
		if err != nil {
			a := Axis{Name: d.name}
			a.fail(fmt.Errorf("%v; want %s", err, d.help))
			return a
		}
		vs[i] = v
	}
	return d.axis(vs...)
}

// as is the widen of a kind that takes exactly its own type.
func as[T any](v any) (T, bool) {
	t, ok := v.(T)
	return t, ok
}

// orInt is the widen of a numeric kind that also takes a plain int.
func orInt[T int64 | float64](v any) (T, bool) {
	if n, ok := v.(int); ok {
		return T(n), true
	}
	return as[T](v)
}

// token adapts a strconv-style parser to a kind's parse: the error names
// what was wanted and the token (build adds the dimension's syntax hint).
func token[T any](what string, parse func(string) (T, error)) func(string) (T, error) {
	return func(s string) (T, error) {
		v, err := parse(s)
		if err != nil {
			return v, fmt.Errorf("bad %s %q", what, s)
		}
		return v, nil
	}
}

// Value kinds shared by more than one dimension, and their syntax hints.
const (
	mbpsHelp     = "rate in Mbps (e.g. 100)"
	durationHelp = "duration (e.g. 60ms)"
)

var (
	// number is a finite float: a NaN or infinite token is no sweep value.
	number = kind[float64]{
		parse: token("number", lifecycle.ParseFinite),
		widen: orInt[float64],
		label: func(v float64) string { return fmt.Sprintf("%g", v) },
	}
	// mbps reads a rate as a number of Mbps, token or native; a
	// unit.Bandwidth is taken as it is. The label carries the unit
	// (Bandwidth.String), which is why bandwidth labels do not re-parse.
	mbps = kind[unit.Bandwidth]{
		parse: token("rate in Mbps", func(s string) (unit.Bandwidth, error) {
			f, err := lifecycle.ParseFinite(s)
			return unit.Bandwidth(f * float64(unit.Mbps)), err
		}),
		widen: func(v any) (unit.Bandwidth, bool) {
			if f, ok := number.widen(v); ok {
				return unit.Bandwidth(f * float64(unit.Mbps)), true
			}
			return as[unit.Bandwidth](v)
		},
		label: unit.Bandwidth.String,
	}
	duration = kind[time.Duration]{token("duration", time.ParseDuration), as[time.Duration], time.Duration.String}
	integer  = kind[int]{token("integer", strconv.Atoi), as[int], strconv.Itoa}
)

// named is the kind of a string-typed value whose text is its own label:
// algorithm and discipline names, preset names, colon specs. Whether the
// name means anything is Config.Validate's to say (topo's check for preset
// names).
func named[T ~string]() kind[T] {
	return kind[T]{
		parse: func(s string) (T, error) { return T(s), nil },
		widen: as[T],
		label: func(v T) string { return string(v) },
	}
}

// joined renders string-typed values separated by sep.
func joined[T ~string](vs []T, sep string) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = string(v)
	}
	return strings.Join(parts, sep)
}

// nonzero is the check of a dimension whose zero means the default: as a
// sweep value it would run the default under a "0" label. The sign and the
// range of a value are Config.Validate's.
func nonzero[T comparable](what string) func(T) error {
	return func(v T) error {
		var zero T
		if v == zero {
			return fmt.Errorf("%s 0 means the default, not a sweep value", what)
		}
		return nil
	}
}

// eachFlow applies f to every measured flow of the config, materializing one
// default flow first if none exist, so per-flow axes compose in any order.
// Cross-traffic flows (FlowSpec.Cross, e.g. installed by a topology preset)
// are background load, not subjects: per-flow axes leave them untouched.
// Under a churn configuration the dynamic flow template is a subject too —
// and when churn is the only workload no default static flow is invented,
// mirroring experiment.Config.withDefaults.
func eachFlow(cfg *experiment.Config, f func(*experiment.FlowSpec)) {
	if cfg.Churn != nil {
		f(&cfg.Churn.Flow)
	} else if !slices.ContainsFunc(cfg.Flows, measured) {
		cfg.Flows = append([]experiment.FlowSpec{{}}, cfg.Flows...)
	}
	for i := range cfg.Flows {
		if cfg.Flows[i].Cross {
			continue
		}
		f(&cfg.Flows[i])
	}
}

// ensureChurn returns the config's churn spec, installing a default one
// (Poisson arrivals, exponential sizes, standard template — see
// experiment.ChurnSpec.withDefaults) if the config was static. Every churn
// axis mutates through it so load/arrivals/fsize compose in any order among
// themselves.
func ensureChurn(cfg *experiment.Config) *experiment.ChurnSpec {
	if cfg.Churn == nil {
		cfg.Churn = &experiment.ChurnSpec{}
	}
	return cfg.Churn
}

// measured reports whether a flow is a subject of per-flow axes, not cross
// traffic.
func measured(fl experiment.FlowSpec) bool { return !fl.Cross }

// withMeasured makes ms the config's measured flows, keeping its cross
// traffic after them in order.
func withMeasured(cfg *experiment.Config, ms []experiment.FlowSpec) {
	for _, fl := range cfg.Flows {
		if fl.Cross {
			ms = append(ms, fl)
		}
	}
	cfg.Flows = ms
}

// The declarations: path, then per-flow and workload, churn, topology.
var (
	// dimBW sweeps the bottleneck rate.
	dimBW = dim[unit.Bandwidth]{
		name: "bw", help: mbpsHelp, kind: mbps,
		check: nonzero[unit.Bandwidth]("bandwidth"),
		set:   func(cfg *experiment.Config, v unit.Bandwidth) { cfg.Path.Bottleneck = v },
	}
	// dimRTT sweeps the round-trip propagation delay.
	dimRTT = dim[time.Duration]{
		name: "rtt", help: durationHelp, kind: duration,
		check: nonzero[time.Duration]("RTT"),
		set:   func(cfg *experiment.Config, v time.Duration) { cfg.Path.RTT = v },
	}
	// dimRQ sweeps the bottleneck buffer in packets.
	dimRQ = dim[int]{
		name: "rq", help: "router queue in packets", kind: integer,
		check: nonzero[int]("router queue"),
		set:   func(cfg *experiment.Config, v int) { cfg.Path.RouterQueue = v },
	}
	// dimIFQ sweeps the sender IFQ capacity in packets.
	dimIFQ = dim[int]{
		name: "ifq", help: "txqueuelen in packets", kind: integer,
		check: nonzero[int]("txqueuelen"),
		set:   func(cfg *experiment.Config, v int) { cfg.Path.TxQueueLen = v },
	}
	// dimLoss sweeps the bottleneck-ingress drop probability. 1.0 — a
	// blackholed path — is a legal value: it is exactly the degenerate cell
	// the fairness metric and the NaN-tolerant exporters are tested on.
	dimLoss = dim[float64]{
		name: "loss", help: "drop probability in [0,1]", kind: number,
		set: func(cfg *experiment.Config, v float64) { cfg.Path.Loss = v },
	}
	// dimNIC sweeps the sender NIC line rate; zero means "equal to the
	// bottleneck" and is not a sweepable value here.
	dimNIC = dim[unit.Bandwidth]{
		name: "nic", help: mbpsHelp, kind: mbps,
		check: nonzero[unit.Bandwidth]("NIC rate"),
		set:   func(cfg *experiment.Config, v unit.Bandwidth) { cfg.Path.NICRate = v },
	}
	// dimHops sweeps the number of forward hops the path is split into:
	// each cell's dumbbell compiles to that many identical store-and-forward
	// stages (rate and buffer repeated, delay divided). It mutates
	// PathConfig, so it composes with bw/rtt/rq in any order.
	dimHops = dim[int]{
		name: "hops", help: "forward hop count (path split into identical stages)", kind: integer,
		check: nonzero[int]("hop count"),
		set:   func(cfg *experiment.Config, v int) { cfg.Path.Hops = v },
	}

	// dimAlg sweeps the slow-start scheme, applied to every flow.
	dimAlg = dim[experiment.Algorithm]{
		name: "alg", help: "algorithm name (" + joined(experiment.Algorithms(), ", ") + ")",
		kind: named[experiment.Algorithm](),
		set: func(cfg *experiment.Config, v experiment.Algorithm) {
			eachFlow(cfg, func(f *experiment.FlowSpec) { f.Alg = v })
		},
	}
	// dimFlows sweeps the number of concurrent flows: the first flow spec
	// (default if none) is replicated n times, each on its own host. The
	// mutator allocates the list before Config.Validate sees it, hence the
	// bounds here.
	dimFlows = dim[int]{
		name: "flows", help: "concurrent flow count", kind: integer,
		check: func(n int) error {
			if n < 1 || n > experiment.MaxFlows {
				return fmt.Errorf("flow count %d outside [1, %d]", n, experiment.MaxFlows)
			}
			return nil
		},
		set: func(cfg *experiment.Config, n int) {
			base := experiment.FlowSpec{}
			if i := slices.IndexFunc(cfg.Flows, measured); i >= 0 {
				base = cfg.Flows[i]
			}
			flows := make([]experiment.FlowSpec, n)
			for i := range flows {
				flows[i] = base
			}
			withMeasured(cfg, flows)
		},
	}
	// dimMatchup sweeps mixed-algorithm contests: each value is a set of
	// algorithms that replaces the flow list with one flow per algorithm,
	// all sharing the bottleneck (e.g. standard vs restricted head-to-head).
	dimMatchup = dim[[]experiment.Algorithm]{
		name: "matchup", help: "algorithms joined with '+' (e.g. standard+restricted)",
		kind: kind[[]experiment.Algorithm]{
			parse: func(s string) ([]experiment.Algorithm, error) {
				var algs []experiment.Algorithm
				for _, n := range strings.Split(s, "+") {
					algs = append(algs, experiment.Algorithm(n))
				}
				return algs, nil
			},
			widen: func(v any) ([]experiment.Algorithm, bool) {
				algs, ok := v.([]experiment.Algorithm)
				return append([]experiment.Algorithm(nil), algs...), ok // the mutator keeps it
			},
			label: func(algs []experiment.Algorithm) string { return joined(algs, "+") },
		},
		check: func(algs []experiment.Algorithm) error {
			if len(algs) == 0 || slices.Contains(algs, "") {
				return fmt.Errorf("empty algorithm set or name in %q", joined(algs, "+"))
			}
			return nil
		},
		set: func(cfg *experiment.Config, algs []experiment.Algorithm) {
			flows := make([]experiment.FlowSpec, len(algs))
			for i, al := range algs {
				flows[i] = experiment.FlowSpec{Alg: al}
			}
			withMeasured(cfg, flows)
		},
	}
	// dimSetpoint sweeps the RSS IFQ set-point fraction on every flow. Only
	// AlgRestricted flows consume it.
	dimSetpoint = dim[float64]{
		name: "setpoint", help: "IFQ set-point fraction in (0,1]", kind: number,
		check: nonzero[float64]("set point"),
		set: func(cfg *experiment.Config, v float64) {
			eachFlow(cfg, func(f *experiment.FlowSpec) { f.SetpointFraction = v })
		},
	}
	// dimTick sweeps the RSS control period on every flow.
	dimTick = dim[time.Duration]{
		name: "tick", help: durationHelp, kind: duration,
		check: nonzero[time.Duration]("tick"),
		set: func(cfg *experiment.Config, v time.Duration) {
			eachFlow(cfg, func(f *experiment.FlowSpec) { f.Tick = v })
		},
	}
	// dimMSS sweeps the segment size on every flow.
	dimMSS = dim[int]{
		name: "mss", help: "segment size in bytes", kind: integer,
		check: nonzero[int]("MSS"),
		set: func(cfg *experiment.Config, v int) {
			eachFlow(cfg, func(f *experiment.FlowSpec) { f.MSS = v })
		},
	}
	// dimSACK sweeps selective acknowledgments on/off on every flow.
	dimSACK = dim[bool]{
		name: "sack", help: "true or false",
		kind: kind[bool]{token("bool", strconv.ParseBool), as[bool], strconv.FormatBool},
		set: func(cfg *experiment.Config, v bool) {
			eachFlow(cfg, func(f *experiment.FlowSpec) { f.SACK = v })
		},
	}
	// dimBytes sweeps the workload shape: a fixed transfer size per flow,
	// with 0 meaning backlogged for the whole run.
	dimBytes = dim[int64]{
		name: "bytes", help: "transfer size in bytes (0 = backlogged)",
		kind: kind[int64]{
			parse: token("integer", func(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) }),
			widen: orInt[int64],
			label: func(v int64) string { return strconv.FormatInt(v, 10) },
		},
		set: func(cfg *experiment.Config, v int64) {
			eachFlow(cfg, func(f *experiment.FlowSpec) { f.Bytes = v })
		},
	}

	// dimLoad sweeps the offered load of a dynamic flow-lifecycle workload,
	// as a fraction of the bottleneck rate: the scenario rescales the
	// arrival process so mean arrival rate × mean transfer size equals the
	// fraction of the bottleneck's byte rate. Values above 1 deliberately
	// overdrive the link. Sweeping load on a static config installs a
	// default churn spec (Poisson arrivals, exponential sizes).
	dimLoad = dim[float64]{
		name: "load", help: "offered load as a fraction of the bottleneck (e.g. 0.8)", kind: number,
		check: nonzero[float64]("offered load"),
		set:   func(cfg *experiment.Config, v float64) { ensureChurn(cfg).Load = v },
	}
	// dimArrivals sweeps the flow arrival process; each value is a lifecycle
	// source spec (Config.Validate parses it, so a typo is an error instead
	// of defaults running under a lying label) and is its own cell label
	// (':' is legal in labels; '=' and '/' are not, and no source spec
	// contains them).
	dimArrivals = dim[string]{
		name: "arrivals", help: "arrival process spec (poisson:RATE, mmpp:LO:HI:SOJOURN, web:S:F:THINK)",
		kind: named[string](),
		set:  func(cfg *experiment.Config, s string) { ensureChurn(cfg).Arrivals = s },
	}
	// dimFSize sweeps the transfer-size distribution of dynamic flows; each
	// value is a lifecycle size-dist spec and is its own cell label.
	dimFSize = dim[string]{
		name: "fsize", help: "transfer-size distribution spec (fixed:64k, exp:100k, pareto:A:MIN:MAX, lognorm:MED:SIGMA)",
		kind: named[string](),
		set:  func(cfg *experiment.Config, s string) { ensureChurn(cfg).Size = s },
	}

	// dimRBW sweeps the reverse-channel bottleneck rate: ACKs serialize
	// through a real queued link at this rate, so asymmetric paths and ACK
	// compression become a sweep dimension. With an explicit topology on the
	// cell (the "topo" axis) the rate lands on its Reverse; otherwise on the
	// dumbbell's ReverseRate.
	dimRBW = dim[unit.Bandwidth]{
		name: "rbw", help: mbpsHelp, kind: mbps,
		check: nonzero[unit.Bandwidth]("reverse rate"),
		set: func(cfg *experiment.Config, v unit.Bandwidth) {
			if cfg.Topology != nil {
				cfg.Topology.Reverse.Rate = v
				return
			}
			cfg.Path.ReverseRate = v
		},
	}
	// dimAQM sweeps the hop queue discipline on every hop of the cell's
	// path. With an explicit topology it rewrites each hop's discipline;
	// otherwise it sets the dumbbell's AQM field.
	dimAQM = dim[experiment.QueueDiscipline]{
		name: "aqm", help: "queue discipline (" + joined(experiment.QueueDisciplines(), ", ") + ")",
		kind: named[experiment.QueueDiscipline](),
		set: func(cfg *experiment.Config, v experiment.QueueDiscipline) {
			if cfg.Topology != nil {
				for i := range cfg.Topology.Hops {
					cfg.Topology.Hops[i].Discipline = v
				}
				return
			}
			cfg.Path.AQM = v
		},
	}
	// dimTopo sweeps stock topology presets: each value installs a named
	// topology — and, for parking-lot, its cross traffic — on the cell. A
	// name is validated by asking the owner: ApplyPreset on a throwaway
	// config is the single source of truth, so the axis can never accept a
	// name the experiment layer rejects (or vice versa).
	dimTopo = dim[string]{
		name: "topo", help: "topology preset name (" + strings.Join(experiment.TopologyPresets(), ", ") + ")",
		kind:  named[string](),
		check: func(n string) error { return experiment.ApplyPreset(&experiment.Config{}, n) },
		// The name passed check; ApplyPreset cannot fail here.
		set: func(cfg *experiment.Config, n string) { _ = experiment.ApplyPreset(cfg, n) },
	}
)

// canonicalOrder is every stock axis in the one order the CLIs stack their
// flag axes in: topology, churn, path, then per-flow. The rule table
// (rules.go) accepts it, since each owner comes before what must follow it,
// and each CLI's flags keep their place in it.
var canonicalOrder = []stockDim{
	dimTopo, dimLoad, dimArrivals, dimFSize,
	dimBW, dimRTT, dimRQ, dimIFQ, dimLoss, dimNIC, dimHops, dimRBW, dimAQM,
	dimAlg, dimFlows, dimMatchup, dimSetpoint, dimTick, dimMSS, dimBytes, dimSACK,
}

// stockAxes is the name registry behind NewAxis and ParseAxis.
var stockAxes = func() map[string]stockDim {
	m := map[string]stockDim{}
	for _, d := range canonicalOrder {
		name, _ := d.decl()
		m[name] = d
	}
	return m
}()

// AxisTopologyValue builds a single-valued "topo" axis from an explicit
// topology (the CLIs' repeatable -hop flags compile to one): every cell runs
// a private clone of it, labeled for the cell key.
func AxisTopologyValue(label string, t experiment.Topology) Axis {
	a := Axis{Name: dimTopo.name}
	a.fail(t.Validate())
	a.Values = append(a.Values, Val(label, func(cfg *experiment.Config) {
		ct := t.Clone()
		cfg.Topology = &ct
	}))
	return a
}

// AxisReverseValue builds a single-valued "rbw" axis from a full reverse
// description (rate + delay + queue, the CLIs' -rev flag), applied to the
// cell's explicit topology when one is set, or to its dumbbell otherwise.
// It shares the "rbw" name so the ordering rule against "topo" covers it.
func AxisReverseValue(r experiment.Reverse) Axis {
	a := dimRBW.axis(r.Rate) // the name, the rate's zero check and its label
	a.Values[0].Set = func(cfg *experiment.Config) {
		if cfg.Topology != nil {
			cfg.Topology.Reverse = r
			return
		}
		cfg.Path.ReverseRate = r.Rate
		cfg.Path.ReverseDelay = r.Delay
		cfg.Path.ReverseQueue = r.Queue
	}
	return a
}

// StockAxisNames lists the registered stock axis names, sorted.
func StockAxisNames() []string { return slices.Sorted(maps.Keys(stockAxes)) }

// AxisHelp returns the one-line value-syntax hint for a stock axis name.
func AxisHelp(name string) string {
	if d, ok := stockAxes[name]; ok {
		_, help := d.decl()
		return help
	}
	return ""
}

// NewAxis builds a stock axis from loosely typed values: native Go types
// (unit.Bandwidth, time.Duration, int, float64, bool, Algorithm, ...) or
// their string forms, freely mixed. An unknown name, no values, a value that
// does not convert or one outside the domain is the axis's error, which
// Plan.Compile and ExecutePlan report before anything runs.
func NewAxis(name string, values ...any) Axis {
	d, ok := stockAxes[name]
	if !ok {
		return Axis{Name: name, err: fmt.Errorf("campaign: unknown axis %q (stock axes: %s)",
			name, strings.Join(StockAxisNames(), ", "))}
	}
	if len(values) == 0 {
		return Axis{Name: name, err: fmt.Errorf("campaign: axis %q: no values", name)}
	}
	return d.build(values)
}

// ParseAxis builds a stock axis from command-line string tokens — NewAxis
// restricted to (whitespace-trimmed) strings. The CLIs reach it through
// their flags (flags.go).
func ParseAxis(name string, raw []string) Axis {
	values := make([]any, len(raw))
	for i, s := range raw {
		values[i] = strings.TrimSpace(s)
	}
	return NewAxis(name, values...)
}
