package campaign

import (
	"fmt"
	"slices"
)

// axisRule is what a stock axis forbids the rest of the plan: the mutator of
// an owner rewrites something the named axes also write, so sharing a plan
// with them — or with them in the wrong order — would make cell labels lie
// about what ran.
type axisRule struct {
	// owners each carry the rule on their own.
	owners []string
	// conflicts can never share a plan with an owner, in either order;
	// conflictWhy says what the owner does that makes it so.
	conflicts   []string
	conflictWhy string
	// mustFollow compose with an owner only when they come after it; orderWhy
	// says what happens to them otherwise.
	mustFollow []string
	orderWhy   string
}

// axisRules is the one place that knows which stock axes may not meet.
// Plan.Validate walks it; CLIs that drop defaulted axes ask AxisConflicts.
var axisRules = []axisRule{
	// matchup replaces the whole flow list. Whichever of alg/flows applies
	// later clobbers the other's mutation; the per-flow axes mutate fields
	// of the existing flows, so matchup must first build the list they
	// decorate.
	{
		owners:      []string{"matchup"},
		conflicts:   []string{"alg", "flows"},
		conflictWhy: "replaces the flow list",
		mustFollow:  []string{"setpoint", "tick", "mss", "sack", "bytes"},
		orderWhy:    "whose values it would otherwise discard when rebuilding the flow list",
	},
	// topo installs an explicit topology (and possibly cross flows), which
	// overrides the PathConfig fields the dumbbell path axes sweep; rbw and
	// aqm mutate the explicit topology when one is set, so a preset applied
	// after them clobbers their values.
	{
		owners:      []string{"topo"},
		conflicts:   []string{"hops", "bw", "rtt", "rq", "loss"},
		conflictWhy: "installs an explicit topology",
		mustFollow:  []string{"rbw", "aqm"},
		orderWhy:    "whose values it would otherwise clobber when installing the topology",
	},
	// The churn axes switch the configuration from a static flow list to a
	// dynamic flow-lifecycle workload. Every dynamic arrival samples its
	// transfer size from the churn size distribution, so a swept per-flow
	// "bytes" value would be silently discarded; and the alg/per-flow axes
	// mutate the flow template through eachFlow, which only sees the churn
	// template once a churn axis has installed it.
	{
		owners:      []string{"load", "arrivals", "fsize"},
		conflicts:   []string{"bytes"},
		conflictWhy: "drives a dynamic workload whose arrivals sample their own sizes",
		mustFollow:  []string{"alg", "setpoint", "tick", "mss", "sack"},
		orderWhy:    "which otherwise mutates the static flow list instead of the dynamic flow template",
	},
}

// AxisConflicts lists the stock axes that can never share a plan with the
// named one (nil when it forbids none).
func AxisConflicts(owner string) []string {
	for _, r := range axisRules {
		if slices.Contains(r.owners, owner) {
			return slices.Clone(r.conflicts) // the table stays the package's own
		}
	}
	return nil
}

// checkAxisRules applies the rule table to a plan's axis positions.
func checkAxisRules(pos map[string]int) error {
	for _, r := range axisRules {
		for _, owner := range r.owners {
			oi, ok := pos[owner]
			if !ok {
				continue
			}
			for _, clash := range r.conflicts {
				if _, ok := pos[clash]; ok {
					return fmt.Errorf("campaign: axis %q %s and conflicts with axis %q; sweep one or the other", owner, r.conflictWhy, clash)
				}
			}
			for _, f := range r.mustFollow {
				if fi, ok := pos[f]; ok && fi < oi {
					return fmt.Errorf("campaign: axis %q must come before axis %q, %s", owner, f, r.orderWhy)
				}
			}
		}
	}
	return nil
}
