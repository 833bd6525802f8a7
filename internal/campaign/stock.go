package campaign

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"rsstcp/internal/experiment"
	"rsstcp/internal/lifecycle"
	"rsstcp/internal/unit"
)

// This file defines the stock axes: typed constructors for every dimension
// the engine knows how to sweep out of the box, plus a name registry so axes
// can be built from untyped values (NewAxis) or command-line strings
// (ParseAxis) without touching the engine.
//
// The first seven (bw, rtt, rq, ifq, loss, alg, flows) are the Grid fields
// and the CLI's classic flags; their labels are pinned by the Plan golden,
// because cell keys feed the derived replicate seeds.

// Stock-axis semantic constraints around "matchup", which replaces the
// whole flow list. Plan.Validate enforces both:
//
//   - matchupHardConflicts can never share a plan with matchup: whichever
//     of alg/flows applies later clobbers the other's mutation, so some
//     cell labels would lie about what ran.
//   - perFlowAxes mutate fields of the existing flows, so they compose
//     with matchup only when they come after it (matchup first builds the
//     flow list, then per-flow axes decorate it); the other order silently
//     discards their values.
var (
	matchupHardConflicts = []string{"alg", "flows"}
	perFlowAxes          = []string{"setpoint", "tick", "mss", "sack", "bytes"}
)

// Stock-axis semantic constraints around "topo", which installs an explicit
// topology (and possibly cross flows) on the configuration. Plan.Validate
// enforces both:
//
//   - topoHardConflicts sweep PathConfig fields an explicit topology
//     overrides entirely, so their cell labels would lie about what ran.
//   - topoAfterAxes mutate the explicit topology when one is set, so they
//     compose with topo only when they come after it; the other order lets
//     the preset clobber their values.
var (
	topoHardConflicts = []string{"hops", "bw", "rtt", "rq", "loss"}
	topoAfterAxes     = []string{"rbw", "aqm"}
)

// Stock-axis semantic constraints around the churn axes (load, arrivals,
// fsize), which switch the configuration from a static flow list to a
// dynamic flow-lifecycle workload. Plan.Validate enforces both:
//
//   - churnHardConflicts can never share a plan with a churn axis: every
//     dynamic arrival samples its transfer size from the churn size
//     distribution, so a swept per-flow "bytes" value would be silently
//     discarded and its cell labels would lie.
//   - churnAfterAxes mutate the flow template through eachFlow, which only
//     sees the churn template once a churn axis has installed it; they
//     compose with churn axes only when they come after them.
var (
	churnAxisNames     = []string{"load", "arrivals", "fsize"}
	churnHardConflicts = []string{"bytes"}
	churnAfterAxes     = []string{"alg", "setpoint", "tick", "mss", "sack"}
)

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
	} else if len(measuredFlows(cfg.Flows)) == 0 {
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

// measuredFlows returns the non-cross flows, in order.
func measuredFlows(flows []experiment.FlowSpec) []experiment.FlowSpec {
	var out []experiment.FlowSpec
	for _, fl := range flows {
		if !fl.Cross {
			out = append(out, fl)
		}
	}
	return out
}

// crossFlows returns the cross-traffic flows, in order.
func crossFlows(flows []experiment.FlowSpec) []experiment.FlowSpec {
	var out []experiment.FlowSpec
	for _, fl := range flows {
		if fl.Cross {
			out = append(out, fl)
		}
	}
	return out
}

// AxisBandwidths sweeps the bottleneck rate ("bw").
func AxisBandwidths(vs ...unit.Bandwidth) Axis {
	a := Axis{Name: "bw"}
	for _, v := range vs {
		v := v
		if v <= 0 {
			a.fail("non-positive bandwidth %v", v)
		}
		a.Values = append(a.Values, Val(v.String(), func(cfg *experiment.Config) {
			cfg.Path.Bottleneck = v
		}))
	}
	return a
}

// AxisRTTs sweeps the round-trip propagation delay ("rtt").
func AxisRTTs(vs ...time.Duration) Axis {
	a := Axis{Name: "rtt"}
	for _, v := range vs {
		v := v
		if v <= 0 {
			a.fail("non-positive RTT %v", v)
		}
		a.Values = append(a.Values, Val(v.String(), func(cfg *experiment.Config) {
			cfg.Path.RTT = v
		}))
	}
	return a
}

// AxisRouterQueues sweeps the bottleneck buffer in packets ("rq").
func AxisRouterQueues(vs ...int) Axis {
	a := Axis{Name: "rq"}
	for _, v := range vs {
		v := v
		if v <= 0 {
			a.fail("non-positive router queue %d", v)
		}
		a.Values = append(a.Values, Val(strconv.Itoa(v), func(cfg *experiment.Config) {
			cfg.Path.RouterQueue = v
		}))
	}
	return a
}

// AxisTxQueueLens sweeps the sender IFQ capacity in packets ("ifq").
func AxisTxQueueLens(vs ...int) Axis {
	a := Axis{Name: "ifq"}
	for _, v := range vs {
		v := v
		if v <= 0 {
			a.fail("non-positive txqueuelen %d", v)
		}
		a.Values = append(a.Values, Val(strconv.Itoa(v), func(cfg *experiment.Config) {
			cfg.Path.TxQueueLen = v
		}))
	}
	return a
}

// AxisLossRates sweeps the bottleneck-ingress drop probability ("loss").
// 1.0 — a blackholed path — is a legal value: it is exactly the degenerate
// cell the fairness metric and the NaN-tolerant exporters are tested on.
func AxisLossRates(vs ...float64) Axis {
	a := Axis{Name: "loss"}
	for _, v := range vs {
		v := v
		if !(v >= 0 && v <= 1) {
			a.fail("loss rate %g outside [0, 1]", v)
		}
		a.Values = append(a.Values, Val(fmt.Sprintf("%g", v), func(cfg *experiment.Config) {
			cfg.Path.Loss = v
		}))
	}
	return a
}

// AxisAlgorithms sweeps the slow-start scheme, applied to every flow
// ("alg").
func AxisAlgorithms(vs ...experiment.Algorithm) Axis {
	a := Axis{Name: "alg"}
	for _, v := range vs {
		v := v
		if !knownAlg(v) {
			a.fail("unknown algorithm %q", v)
		}
		a.Values = append(a.Values, Val(string(v), func(cfg *experiment.Config) {
			eachFlow(cfg, func(f *experiment.FlowSpec) { f.Alg = v })
		}))
	}
	return a
}

// AxisFlowCounts sweeps the number of concurrent flows ("flows"): the first
// flow spec (default if none) is replicated n times, each on its own host.
func AxisFlowCounts(vs ...int) Axis {
	a := Axis{Name: "flows"}
	for _, v := range vs {
		v := v
		if v <= 0 {
			a.fail("non-positive flow count %d", v)
		}
		a.Values = append(a.Values, Val(strconv.Itoa(v), func(cfg *experiment.Config) {
			base := experiment.FlowSpec{}
			if m := measuredFlows(cfg.Flows); len(m) > 0 {
				base = m[0]
			}
			cross := crossFlows(cfg.Flows)
			flows := make([]experiment.FlowSpec, v, v+len(cross))
			for i := range flows {
				flows[i] = base
			}
			cfg.Flows = append(flows, cross...)
		}))
	}
	return a
}

// AxisSetpoints sweeps the RSS IFQ set-point fraction on every flow
// ("setpoint"). Only AlgRestricted flows consume it.
func AxisSetpoints(vs ...float64) Axis {
	a := Axis{Name: "setpoint"}
	for _, v := range vs {
		v := v
		if !(v > 0 && v <= 1) {
			a.fail("set point %g outside (0, 1]", v)
		}
		a.Values = append(a.Values, Val(fmt.Sprintf("%g", v), func(cfg *experiment.Config) {
			eachFlow(cfg, func(f *experiment.FlowSpec) { f.SetpointFraction = v })
		}))
	}
	return a
}

// AxisTicks sweeps the RSS control period on every flow ("tick").
func AxisTicks(vs ...time.Duration) Axis {
	a := Axis{Name: "tick"}
	for _, v := range vs {
		v := v
		if v <= 0 {
			a.fail("non-positive tick %v", v)
		}
		a.Values = append(a.Values, Val(v.String(), func(cfg *experiment.Config) {
			eachFlow(cfg, func(f *experiment.FlowSpec) { f.Tick = v })
		}))
	}
	return a
}

// AxisMSS sweeps the segment size on every flow ("mss").
func AxisMSS(vs ...int) Axis {
	a := Axis{Name: "mss"}
	for _, v := range vs {
		v := v
		if v <= 0 {
			a.fail("non-positive MSS %d", v)
		}
		a.Values = append(a.Values, Val(strconv.Itoa(v), func(cfg *experiment.Config) {
			eachFlow(cfg, func(f *experiment.FlowSpec) { f.MSS = v })
		}))
	}
	return a
}

// AxisSACK sweeps selective acknowledgments on/off on every flow ("sack").
func AxisSACK(vs ...bool) Axis {
	a := Axis{Name: "sack"}
	for _, v := range vs {
		v := v
		a.Values = append(a.Values, Val(strconv.FormatBool(v), func(cfg *experiment.Config) {
			eachFlow(cfg, func(f *experiment.FlowSpec) { f.SACK = v })
		}))
	}
	return a
}

// AxisNICRates sweeps the sender NIC line rate ("nic"); zero means "equal to
// the bottleneck" and is not a sweepable value here.
func AxisNICRates(vs ...unit.Bandwidth) Axis {
	a := Axis{Name: "nic"}
	for _, v := range vs {
		v := v
		if v <= 0 {
			a.fail("non-positive NIC rate %v", v)
		}
		a.Values = append(a.Values, Val(v.String(), func(cfg *experiment.Config) {
			cfg.Path.NICRate = v
		}))
	}
	return a
}

// AxisMatchups sweeps mixed-algorithm contests ("matchup"): each value is a
// set of algorithms that replaces the flow list with one flow per algorithm,
// all sharing the bottleneck (e.g. standard vs restricted head-to-head).
// Labels join the algorithms with '+'. Plan.Validate rejects plans that
// combine matchup with the alg or flows axes, whose mutators it would
// clobber.
func AxisMatchups(vs ...[]experiment.Algorithm) Axis {
	a := Axis{Name: "matchup"}
	for _, algs := range vs {
		algs := append([]experiment.Algorithm(nil), algs...)
		if len(algs) == 0 {
			a.fail("empty algorithm set")
		}
		for _, al := range algs {
			if !knownAlg(al) {
				a.fail("unknown algorithm %q", al)
			}
		}
		parts := make([]string, len(algs))
		for i, al := range algs {
			parts[i] = string(al)
		}
		a.Values = append(a.Values, Val(strings.Join(parts, "+"), func(cfg *experiment.Config) {
			cross := crossFlows(cfg.Flows)
			flows := make([]experiment.FlowSpec, len(algs), len(algs)+len(cross))
			for i, al := range algs {
				flows[i] = experiment.FlowSpec{Alg: al}
			}
			cfg.Flows = append(flows, cross...)
		}))
	}
	return a
}

// AxisBytes sweeps the workload shape ("bytes"): a fixed transfer size per
// flow, with 0 meaning backlogged for the whole run.
func AxisBytes(vs ...int64) Axis {
	a := Axis{Name: "bytes"}
	for _, v := range vs {
		v := v
		if v < 0 {
			a.fail("negative transfer size %d", v)
		}
		a.Values = append(a.Values, Val(strconv.FormatInt(v, 10), func(cfg *experiment.Config) {
			eachFlow(cfg, func(f *experiment.FlowSpec) { f.Bytes = v })
		}))
	}
	return a
}

// AxisLoads sweeps the offered load of a dynamic flow-lifecycle workload
// ("load"), as a fraction of the bottleneck rate: the scenario rescales the
// arrival process so mean arrival rate × mean transfer size equals the
// fraction of the bottleneck's byte rate. Values above 1 deliberately
// overdrive the link. Sweeping load on a static config installs a default
// churn spec (Poisson arrivals, exponential sizes).
func AxisLoads(vs ...float64) Axis {
	a := Axis{Name: "load"}
	for _, v := range vs {
		v := v
		if !(v > 0) || math.IsInf(v, 0) {
			a.fail("offered load %g is not a positive finite number", v)
		}
		a.Values = append(a.Values, Val(fmt.Sprintf("%g", v), func(cfg *experiment.Config) {
			ensureChurn(cfg).Load = v
		}))
	}
	return a
}

// AxisArrivals sweeps the flow arrival process ("arrivals"): each value is a
// lifecycle source spec — "poisson:RATE", "mmpp:LO:HI:SOJOURN" or
// "web:SESSIONS:FLOWS:THINK". Specs are validated at
// construction so a typo fails Plan.Validate instead of running defaults
// under a lying label. The spec string is the cell label (':' is legal in
// labels; '=' and '/' are not, and no source spec contains them).
func AxisArrivals(specs ...string) Axis {
	a := Axis{Name: "arrivals"}
	for _, s := range specs {
		s := s
		if _, err := lifecycle.ParseSource(s); err != nil {
			a.fail("%v", err)
		}
		a.Values = append(a.Values, Val(s, func(cfg *experiment.Config) {
			ensureChurn(cfg).Arrivals = s
		}))
	}
	return a
}

// AxisFlowSizes sweeps the transfer-size distribution of dynamic flows
// ("fsize"): each value is a lifecycle size-dist spec — "fixed:64k",
// "exp:100k", "pareto:ALPHA:MIN:MAX", or "lognorm:MEDIAN:SIGMA". Validated
// at construction; the spec string is the cell label.
func AxisFlowSizes(specs ...string) Axis {
	a := Axis{Name: "fsize"}
	for _, s := range specs {
		s := s
		if _, err := lifecycle.ParseSizeDist(s); err != nil {
			a.fail("%v", err)
		}
		a.Values = append(a.Values, Val(s, func(cfg *experiment.Config) {
			ensureChurn(cfg).Size = s
		}))
	}
	return a
}

// AxisHopCounts sweeps the number of forward hops the path is split into
// ("hops"): each cell's dumbbell compiles to that many identical store-and-
// forward stages (rate and buffer repeated, delay divided). It mutates
// PathConfig, so it composes with bw/rtt/rq in any order — and conflicts
// with the "topo" axis, which installs an explicit hop list.
func AxisHopCounts(vs ...int) Axis {
	a := Axis{Name: "hops"}
	for _, v := range vs {
		v := v
		if v <= 0 {
			a.fail("non-positive hop count %d", v)
		}
		a.Values = append(a.Values, Val(strconv.Itoa(v), func(cfg *experiment.Config) {
			cfg.Path.Hops = v
		}))
	}
	return a
}

// AxisReverseRates sweeps the reverse-channel bottleneck rate ("rbw"): ACKs
// serialize through a real queued link at this rate, so asymmetric paths and
// ACK compression become a sweep dimension. With an explicit topology on the
// cell (the "topo" axis) the rate lands on its Reverse; otherwise on the
// dumbbell's ReverseRate.
func AxisReverseRates(vs ...unit.Bandwidth) Axis {
	a := Axis{Name: "rbw"}
	for _, v := range vs {
		v := v
		if v <= 0 {
			a.fail("non-positive reverse rate %v", v)
		}
		a.Values = append(a.Values, Val(v.String(), func(cfg *experiment.Config) {
			if cfg.Topology != nil {
				cfg.Topology.Reverse.Rate = v
				return
			}
			cfg.Path.ReverseRate = v
		}))
	}
	return a
}

// AxisAQMs sweeps the hop queue discipline ("aqm"): drop-tail versus RED on
// every hop of the cell's path. With an explicit topology it rewrites each
// hop's discipline; otherwise it sets the dumbbell's AQM field.
func AxisAQMs(vs ...experiment.QueueDiscipline) Axis {
	a := Axis{Name: "aqm"}
	for _, v := range vs {
		v := v
		if !knownAQM(v) {
			a.fail("unknown queue discipline %q", v)
		}
		a.Values = append(a.Values, Val(string(v), func(cfg *experiment.Config) {
			if cfg.Topology != nil {
				for i := range cfg.Topology.Hops {
					cfg.Topology.Hops[i].Discipline = v
				}
				return
			}
			cfg.Path.AQM = v
		}))
	}
	return a
}

// AxisTopologies sweeps stock topology presets ("topo"): each value installs
// a named topology — and, for parking-lot, its cross traffic — on the cell.
// Plan.Validate rejects plans combining it with path axes it would override
// (hops, bw, rtt, rq, loss) and requires rbw/aqm to come after it.
func AxisTopologies(names ...string) Axis {
	a := Axis{Name: "topo"}
	for _, n := range names {
		n := n
		if !knownPreset(n) {
			a.fail("unknown topology preset %q (known: %s)", n, strings.Join(experiment.TopologyPresets(), ", "))
		}
		a.Values = append(a.Values, Val(n, func(cfg *experiment.Config) {
			// Preset names were validated at construction; ApplyPreset
			// cannot fail here.
			_ = experiment.ApplyPreset(cfg, n)
		}))
	}
	return a
}

// AxisTopologyValue builds a single-valued "topo" axis from an explicit
// topology (the CLIs' repeatable -hop flags compile to one): every cell runs
// a private clone of it, labeled for the cell key.
func AxisTopologyValue(label string, t experiment.Topology) Axis {
	a := Axis{Name: "topo"}
	if err := t.Validate(); err != nil {
		a.fail("%v", err)
	}
	a.Values = append(a.Values, Val(label, func(cfg *experiment.Config) {
		ct := t.Clone()
		cfg.Topology = &ct
	}))
	return a
}

// AxisReverseValue builds a single-valued "rbw" axis from a full reverse
// description (rate + delay + queue, the CLIs' -rev flag), applied to the
// cell's explicit topology when one is set, or to its dumbbell otherwise.
// It shares the "rbw" name so Plan.Validate's ordering rule against "topo"
// covers it.
func AxisReverseValue(r experiment.Reverse) Axis {
	a := Axis{Name: "rbw"}
	if r.Rate <= 0 {
		a.fail("non-positive reverse rate %v", r.Rate)
	}
	a.Values = append(a.Values, Val(r.Rate.String(), func(cfg *experiment.Config) {
		if cfg.Topology != nil {
			cfg.Topology.Reverse = r
			return
		}
		cfg.Path.ReverseRate = r.Rate
		cfg.Path.ReverseDelay = r.Delay
		cfg.Path.ReverseQueue = r.Queue
	}))
	return a
}

func knownAQM(d experiment.QueueDiscipline) bool {
	for _, k := range experiment.QueueDisciplines() {
		if d == k {
			return true
		}
	}
	return false
}

// knownPreset validates a preset name by asking the owner: ApplyPreset on a
// throwaway config is the single source of truth, so the axis can never
// accept a name the experiment layer rejects (or vice versa).
func knownPreset(n string) bool {
	return experiment.ApplyPreset(&experiment.Config{}, n) == nil
}

// axisSpec adapts one stock axis to untyped and string-typed construction.
type axisSpec struct {
	// help is a one-line usage hint (value syntax) for CLIs.
	help string
	// fromAny converts one value of any supported Go type; strings fall
	// back to fromString.
	fromAny func(v any) (Axis, error)
	// fromString parses one CLI token.
	fromString func(s string) (Axis, error)
}

// knownAlg reports whether a is a selectable algorithm.
func knownAlg(a experiment.Algorithm) bool {
	for _, k := range experiment.Algorithms() {
		if a == k {
			return true
		}
	}
	return false
}

// parseAlgs validates a list of algorithm names.
func parseAlgs(names []string) ([]experiment.Algorithm, error) {
	out := make([]experiment.Algorithm, len(names))
	for i, n := range names {
		a := experiment.Algorithm(n)
		if !knownAlg(a) {
			return nil, fmt.Errorf("unknown algorithm %q", n)
		}
		out[i] = a
	}
	return out, nil
}

func specBandwidth(name string, build func(...unit.Bandwidth) Axis) axisSpec {
	fromString := func(s string) (Axis, error) {
		mbps, err := lifecycle.ParseFinite(s)
		if err != nil {
			return Axis{}, fmt.Errorf("%s: want a rate in Mbps, got %q", name, s)
		}
		return build(unit.Bandwidth(mbps * float64(unit.Mbps))), nil
	}
	return axisSpec{
		help: "rate in Mbps (e.g. 100)",
		fromAny: func(v any) (Axis, error) {
			switch x := v.(type) {
			case unit.Bandwidth:
				return build(x), nil
			case int:
				return build(unit.Bandwidth(x) * unit.Mbps), nil
			case float64:
				return build(unit.Bandwidth(x * float64(unit.Mbps))), nil
			case string:
				return fromString(x)
			default:
				return Axis{}, fmt.Errorf("%s: want unit.Bandwidth, int/float Mbps or string, got %T", name, v)
			}
		},
		fromString: fromString,
	}
}

func specDuration(name string, build func(...time.Duration) Axis) axisSpec {
	fromString := func(s string) (Axis, error) {
		d, err := time.ParseDuration(s)
		if err != nil {
			return Axis{}, fmt.Errorf("%s: bad duration %q: %v", name, s, err)
		}
		return build(d), nil
	}
	return axisSpec{
		help: "duration (e.g. 60ms)",
		fromAny: func(v any) (Axis, error) {
			switch x := v.(type) {
			case time.Duration:
				return build(x), nil
			case string:
				return fromString(x)
			default:
				return Axis{}, fmt.Errorf("%s: want time.Duration or string, got %T", name, v)
			}
		},
		fromString: fromString,
	}
}

func specInt(name, help string, build func(...int) Axis) axisSpec {
	fromString := func(s string) (Axis, error) {
		n, err := strconv.Atoi(s)
		if err != nil {
			return Axis{}, fmt.Errorf("%s: bad integer %q", name, s)
		}
		return build(n), nil
	}
	return axisSpec{
		help: help,
		fromAny: func(v any) (Axis, error) {
			switch x := v.(type) {
			case int:
				return build(x), nil
			case string:
				return fromString(x)
			default:
				return Axis{}, fmt.Errorf("%s: want int or string, got %T", name, v)
			}
		},
		fromString: fromString,
	}
}

func specFloat(name, help string, build func(...float64) Axis) axisSpec {
	fromString := func(s string) (Axis, error) {
		f, err := lifecycle.ParseFinite(s)
		if err != nil {
			return Axis{}, fmt.Errorf("%s: bad number %q", name, s)
		}
		return build(f), nil
	}
	return axisSpec{
		help: help,
		fromAny: func(v any) (Axis, error) {
			switch x := v.(type) {
			case float64:
				return build(x), nil
			case int:
				return build(float64(x)), nil
			case string:
				return fromString(x)
			default:
				return Axis{}, fmt.Errorf("%s: want float or string, got %T", name, v)
			}
		},
		fromString: fromString,
	}
}

var stockAxes = map[string]axisSpec{
	"bw":  specBandwidth("bw", AxisBandwidths),
	"rtt": specDuration("rtt", AxisRTTs),
	"rq":  specInt("rq", "router queue in packets", AxisRouterQueues),
	"ifq": specInt("ifq", "txqueuelen in packets", AxisTxQueueLens),
	"loss": specFloat("loss", "drop probability in [0,1)", func(vs ...float64) Axis {
		return AxisLossRates(vs...)
	}),
	"alg": {
		help: "algorithm name (standard, restricted, ...)",
		fromAny: func(v any) (Axis, error) {
			switch x := v.(type) {
			case experiment.Algorithm:
				return axisFromAlgs([]string{string(x)})
			case string:
				return axisFromAlgs([]string{x})
			default:
				return Axis{}, fmt.Errorf("alg: want experiment.Algorithm or string, got %T", v)
			}
		},
		fromString: func(s string) (Axis, error) { return axisFromAlgs([]string{s}) },
	},
	"flows": specInt("flows", "concurrent flow count", AxisFlowCounts),
	"setpoint": specFloat("setpoint", "IFQ set-point fraction in (0,1]", func(vs ...float64) Axis {
		return AxisSetpoints(vs...)
	}),
	"tick": specDuration("tick", AxisTicks),
	"mss":  specInt("mss", "segment size in bytes", AxisMSS),
	"sack": {
		help: "true or false",
		fromAny: func(v any) (Axis, error) {
			switch x := v.(type) {
			case bool:
				return AxisSACK(x), nil
			case string:
				b, err := strconv.ParseBool(x)
				if err != nil {
					return Axis{}, fmt.Errorf("sack: bad bool %q", x)
				}
				return AxisSACK(b), nil
			default:
				return Axis{}, fmt.Errorf("sack: want bool or string, got %T", v)
			}
		},
		fromString: func(s string) (Axis, error) {
			b, err := strconv.ParseBool(s)
			if err != nil {
				return Axis{}, fmt.Errorf("sack: bad bool %q", s)
			}
			return AxisSACK(b), nil
		},
	},
	"nic":  specBandwidth("nic", AxisNICRates),
	"hops": specInt("hops", "forward hop count (path split into identical stages)", AxisHopCounts),
	"rbw":  specBandwidth("rbw", AxisReverseRates),
	"aqm": {
		help: "queue discipline (droptail, red)",
		fromAny: func(v any) (Axis, error) {
			switch x := v.(type) {
			case experiment.QueueDiscipline:
				return AxisAQMs(x), nil
			case string:
				return AxisAQMs(experiment.QueueDiscipline(x)), nil
			default:
				return Axis{}, fmt.Errorf("aqm: want experiment.QueueDiscipline or string, got %T", v)
			}
		},
		fromString: func(s string) (Axis, error) { return AxisAQMs(experiment.QueueDiscipline(s)), nil },
	},
	"topo": {
		help: "topology preset name (dumbbell, parking-lot, reverse-congested)",
		fromAny: func(v any) (Axis, error) {
			switch x := v.(type) {
			case string:
				return AxisTopologies(x), nil
			default:
				return Axis{}, fmt.Errorf("topo: want string, got %T", v)
			}
		},
		fromString: func(s string) (Axis, error) { return AxisTopologies(s), nil },
	},
	"matchup": {
		help: "algorithms joined with '+' (e.g. standard+restricted)",
		fromAny: func(v any) (Axis, error) {
			switch x := v.(type) {
			case []experiment.Algorithm:
				names := make([]string, len(x))
				for i, a := range x {
					names[i] = string(a)
				}
				return axisFromMatchup(names)
			case string:
				return axisFromMatchup(strings.Split(x, "+"))
			default:
				return Axis{}, fmt.Errorf("matchup: want []experiment.Algorithm or string, got %T", v)
			}
		},
		fromString: func(s string) (Axis, error) { return axisFromMatchup(strings.Split(s, "+")) },
	},
	"bytes": {
		help: "transfer size in bytes (0 = backlogged)",
		fromAny: func(v any) (Axis, error) {
			switch x := v.(type) {
			case int64:
				return AxisBytes(x), nil
			case int:
				return AxisBytes(int64(x)), nil
			case string:
				n, err := strconv.ParseInt(x, 10, 64)
				if err != nil {
					return Axis{}, fmt.Errorf("bytes: bad integer %q", x)
				}
				return AxisBytes(n), nil
			default:
				return Axis{}, fmt.Errorf("bytes: want int64, int or string, got %T", v)
			}
		},
		fromString: func(s string) (Axis, error) {
			n, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return Axis{}, fmt.Errorf("bytes: bad integer %q", s)
			}
			return AxisBytes(n), nil
		},
	},
	"load": specFloat("load", "offered load as a fraction of the bottleneck (e.g. 0.8)", func(vs ...float64) Axis {
		return AxisLoads(vs...)
	}),
	"arrivals": {
		help: "arrival process spec (poisson:RATE, mmpp:LO:HI:SOJOURN, web:S:F:THINK)",
		fromAny: func(v any) (Axis, error) {
			switch x := v.(type) {
			case string:
				return AxisArrivals(x), nil
			default:
				return Axis{}, fmt.Errorf("arrivals: want string spec, got %T", v)
			}
		},
		fromString: func(s string) (Axis, error) { return AxisArrivals(s), nil },
	},
	"fsize": {
		help: "transfer-size distribution spec (fixed:64k, exp:100k, pareto:A:MIN:MAX, lognorm:MED:SIGMA)",
		fromAny: func(v any) (Axis, error) {
			switch x := v.(type) {
			case string:
				return AxisFlowSizes(x), nil
			default:
				return Axis{}, fmt.Errorf("fsize: want string spec, got %T", v)
			}
		},
		fromString: func(s string) (Axis, error) { return AxisFlowSizes(s), nil },
	},
}

func axisFromAlgs(names []string) (Axis, error) {
	algs, err := parseAlgs(names)
	if err != nil {
		return Axis{}, err
	}
	return AxisAlgorithms(algs...), nil
}

func axisFromMatchup(names []string) (Axis, error) {
	algs, err := parseAlgs(names)
	if err != nil {
		return Axis{}, err
	}
	if len(algs) == 0 {
		return Axis{}, fmt.Errorf("matchup: empty algorithm set")
	}
	return AxisMatchups(algs), nil
}

// StockAxisNames lists the registered stock axis names, sorted.
func StockAxisNames() []string {
	names := make([]string, 0, len(stockAxes))
	for n := range stockAxes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// AxisHelp returns the one-line value-syntax hint for a stock axis name.
func AxisHelp(name string) string {
	if spec, ok := stockAxes[name]; ok {
		return spec.help
	}
	return ""
}

// NewAxis builds a stock axis from loosely typed values: native Go types
// (unit.Bandwidth, time.Duration, int, float64, bool, Algorithm, ...) or
// their string forms, freely mixed. It is the dispatcher behind the facade's
// Sweep(name, values...) builder.
func NewAxis(name string, values ...any) (Axis, error) {
	spec, ok := stockAxes[name]
	if !ok {
		return Axis{}, fmt.Errorf("campaign: unknown axis %q (stock axes: %s)",
			name, strings.Join(StockAxisNames(), ", "))
	}
	if len(values) == 0 {
		return Axis{}, fmt.Errorf("campaign: axis %q: no values", name)
	}
	out := Axis{Name: name}
	for _, v := range values {
		a, err := spec.fromAny(v)
		if err != nil {
			return Axis{}, fmt.Errorf("campaign: axis %q: %v", name, err)
		}
		if a.err != nil {
			return Axis{}, a.err // already prefixed by Axis.fail
		}
		out.Values = append(out.Values, a.Values...)
	}
	return out, nil
}

// ParseAxis builds a stock axis from command-line string tokens — the same
// registry as NewAxis, restricted to string parsing. CLIs use it so new
// sweep dimensions need no campaign-internal edits.
func ParseAxis(name string, raw []string) (Axis, error) {
	spec, ok := stockAxes[name]
	if !ok {
		return Axis{}, fmt.Errorf("campaign: unknown axis %q (stock axes: %s)",
			name, strings.Join(StockAxisNames(), ", "))
	}
	if len(raw) == 0 {
		return Axis{}, fmt.Errorf("campaign: axis %q: no values", name)
	}
	out := Axis{Name: name}
	for _, s := range raw {
		a, err := spec.fromString(strings.TrimSpace(s))
		if err != nil {
			return Axis{}, fmt.Errorf("campaign: axis %q: %v", name, err)
		}
		if a.err != nil {
			return Axis{}, a.err // already prefixed by Axis.fail
		}
		out.Values = append(out.Values, a.Values...)
	}
	return out, nil
}
