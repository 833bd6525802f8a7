package campaign

import (
	"fmt"
	"strings"
	"time"

	"rsstcp/internal/experiment"
)

// Value is one labeled point of an axis: a canonical label (it becomes part
// of the cell key, and therefore of the derived replicate seeds) and a
// mutator that imprints the value on an experiment configuration.
type Value struct {
	// Label is the canonical text form of the value. It must be unique
	// within its axis and must not contain '=' or '/' (the key syntax).
	Label string
	// Set applies the value to a configuration under construction.
	Set func(*experiment.Config)
}

// Val builds a Value from a label and mutator.
func Val(label string, set func(*experiment.Config)) Value {
	return Value{Label: label, Set: set}
}

// Axis is a named sweep dimension: an ordered list of labeled configuration
// mutators. The engine runs the cartesian product of all axes, so any
// experiment.Config field — path shape, per-flow tuning, workload — can
// become a sweep dimension without touching the engine.
type Axis struct {
	// Name identifies the dimension in cell keys ("name=label") and table
	// headers. It must not contain '=' or '/'.
	Name string
	// Values are the points swept along this axis, in declaration order.
	Values []Value
	// err records the first construction error: an unknown stock name, a
	// value that does not convert, or one outside the domain (e.g. a
	// non-positive bandwidth). The experiment harness silently replaces
	// out-of-range values with paper defaults, so an unvalidated axis
	// would run the default while its cell label claims the bad value;
	// Plan.Validate surfaces the error before anything runs.
	err error
}

// fail records the axis's first construction error; nil is none.
func (a *Axis) fail(err error) {
	if err != nil && a.err == nil {
		a.err = fmt.Errorf("campaign: axis %q: %v", a.Name, err)
	}
}

// Plan is a declarative campaign over arbitrary axes: the engine expands the
// cartesian product of Axes into cells, runs Replicates seeded simulations
// per cell, and summarizes the Metrics over each cell's replicates.
//
// Grid.Plan() compiles the seven fixed grid fields to such a plan.
type Plan struct {
	// Axes are the sweep dimensions, outermost first. No axes means a
	// single cell of pure defaults.
	Axes []Axis
	// Metrics are the per-replicate extractors to summarize per cell
	// (default: StockMetrics()).
	Metrics []Metric
	// Replicates runs each cell this many times with distinct derived
	// seeds (default 1).
	Replicates int
	// Duration is the virtual run length per replicate (default 25 s).
	Duration time.Duration
	// BaseSeed roots every derived replicate seed (default 1).
	BaseSeed uint64
	// Base seeds every cell's configuration before axis mutators run.
	// It carries what the plan holds fixed rather than sweeps: the path
	// (PaperSuite's PaperPath), a flow list the per-flow axes decorate
	// (a SACK-on flow) or leave alone (a Cross flow), and toggles such as
	// TimerWheel or RetainFlows. It deliberately does not contribute to
	// cell keys, so flipping a Base field never perturbs the derived
	// replicate seeds: a plan run with TimerWheel on is byte-comparable to
	// the same plan with it off. Plan.Duration still overrides
	// Base.Duration, and every replicate runs traceless whatever
	// Base.Traceless says.
	Base experiment.Config
}

func (p Plan) withDefaults() Plan {
	if len(p.Metrics) == 0 {
		p.Metrics = StockMetrics()
	}
	if p.Replicates <= 0 {
		p.Replicates = 1
	}
	if p.Duration <= 0 {
		p.Duration = 25 * time.Second
	}
	if p.BaseSeed == 0 {
		p.BaseSeed = 1
	}
	return p
}

// Validate rejects plans whose axes or metrics would corrupt cell keys or
// crash the runner: duplicate or malformed axis names, stock axes the rule
// table (rules.go) forbids together or in that order, empty axes, duplicate
// or malformed value labels, nil mutators, and unnamed or nil metrics.
func (p Plan) Validate() error {
	p = p.withDefaults()
	axisPos := map[string]int{}
	for i, a := range p.Axes {
		if a.err != nil {
			return a.err
		}
		if a.Name == "" || strings.ContainsAny(a.Name, "=/") {
			return fmt.Errorf("campaign: bad axis name %q (empty, or contains '=' or '/')", a.Name)
		}
		if _, dup := axisPos[a.Name]; dup {
			return fmt.Errorf("campaign: duplicate axis %q", a.Name)
		}
		axisPos[a.Name] = i
	}
	if err := checkAxisRules(axisPos); err != nil {
		return err
	}
	for _, a := range p.Axes {
		if len(a.Values) == 0 {
			return fmt.Errorf("campaign: axis %q has no values", a.Name)
		}
		seenVal := map[string]bool{}
		for _, v := range a.Values {
			if v.Label == "" || strings.ContainsAny(v.Label, "=/") {
				return fmt.Errorf("campaign: axis %q: bad value label %q (empty, or contains '=' or '/')", a.Name, v.Label)
			}
			if seenVal[v.Label] {
				return fmt.Errorf("campaign: axis %q: duplicate value %q", a.Name, v.Label)
			}
			seenVal[v.Label] = true
			if v.Set == nil {
				return fmt.Errorf("campaign: axis %q value %q has no mutator", a.Name, v.Label)
			}
		}
	}
	seenMetric := map[string]bool{}
	for _, m := range p.Metrics {
		if m.Name == "" {
			return fmt.Errorf("campaign: unnamed metric")
		}
		if seenMetric[m.Name] {
			return fmt.Errorf("campaign: duplicate metric %q", m.Name)
		}
		seenMetric[m.Name] = true
		if m.Extract == nil {
			return fmt.Errorf("campaign: metric %q has no extractor", m.Name)
		}
	}
	return nil
}

// PlanCell is one point of the expanded axis product: the canonical key, the
// per-axis "name=label" pairs, and the composed configuration (seedless; the
// runner derives one seed per replicate from the key).
type PlanCell struct {
	// Index is the cell's position in canonical expansion order.
	Index int
	// Key is the canonical cell identity: the "name=label" pairs joined
	// with "/". It is the sole cell-side input to replicate seed
	// derivation, so seeds depend only on parameters.
	Key string
	// Labels are the per-axis "name=label" pairs in axis order.
	Labels []string
	// Config is the composed configuration, before seeding.
	Config experiment.Config
}

// Size returns the number of cells the plan expands to.
func (p Plan) Size() int {
	n := 1
	for _, a := range p.Axes {
		n *= len(a.Values)
	}
	return n
}

// Runs returns the total number of simulations (cells × replicates).
func (p Plan) Runs() int {
	p = p.withDefaults()
	return p.Size() * p.Replicates
}

// Cells expands the axis product in canonical order: the first axis is
// outermost, the last varies fastest. Mutators are applied in axis order, each
// on a copy of the configuration one depth up; each "name=label" pair is built
// once, and every cell's Labels is a capacity-clipped window of one array.
func (p Plan) Cells() []PlanCell {
	p = p.withDefaults()
	k, n := len(p.Axes), p.Size()
	cells, path, pairs := make([]PlanCell, n), make([]string, k), make([][]string, k)
	for a, ax := range p.Axes {
		pairs[a] = make([]string, len(ax.Values))
		for v, val := range ax.Values {
			pairs[a][v] = ax.Name + "=" + val.Label
		}
	}
	var labels []string // stays nil without axes: the one cell exports "labels": null
	if k > 0 {
		labels = make([]string, n*k)
	}
	cfgs, i := make([]experiment.Config, k+1), 0 // cfgs[d]: axes 0..d-1 applied
	var rec func(axis int)
	rec = func(axis int) {
		if axis == k {
			c := &cells[i]
			c.Index, c.Key, c.Config = i, strings.Join(path, "/"), cfgs[k]
			c.Labels = labels[i*k : (i+1)*k : (i+1)*k]
			copy(c.Labels, path)
			i++
			return
		}
		for v, val := range p.Axes[axis].Values {
			path[axis] = pairs[axis][v]
			cloneConfig(&cfgs[axis+1], &cfgs[axis])
			val.Set(&cfgs[axis+1])
			rec(axis + 1)
		}
	}
	cloneConfig(&cfgs[0], &p.Base)
	cfgs[0].Duration = p.Duration
	rec(0)
	return cells
}

// cloneConfig copies src into dst, deeply in the parts of a Config that axis
// mutators touch, so sibling cells never alias each other's flow specs or
// hop lists.
func cloneConfig(dst, src *experiment.Config) {
	*dst = *src
	dst.Flows = append([]experiment.FlowSpec(nil), src.Flows...)
	if src.Topology != nil {
		t := src.Topology.Clone()
		dst.Topology = &t
	}
	if src.Churn != nil {
		ch := *src.Churn
		dst.Churn = &ch
	}
}

// Config returns the fully seeded configuration for one replicate of the
// cell. The seed depends only on (BaseSeed, cell key, replicate) — never on
// scheduling — preserving the byte-determinism invariant.
func (p Plan) Config(c PlanCell, replicate int) experiment.Config {
	p = p.withDefaults()
	var cfg experiment.Config
	cloneConfig(&cfg, &c.Config)
	cfg.Seed = DeriveSeed(p.BaseSeed, c.Key, replicate)
	return cfg
}
