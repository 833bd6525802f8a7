package main

import (
	"flag"
	"slices"
	"strings"
	"testing"

	"rsstcp/internal/campaign"
)

// validToken is one in-domain value per axis flag.
var validToken = map[string]string{
	"topo": "parking-lot", "load": "0.5", "arrivals": "poisson:10", "fsize": "exp:100k",
	"bw": "100", "rtt": "60ms", "rq": "250", "ifq": "100", "loss": "0",
	"alg": "standard", "flows": "1",
}

// TestAxisFlagsFollowCanonicalOrder: every axis flag names a stock axis, and
// with all of them set the flag compiler stacks them in list order — so the
// list is a sub-sequence of the canonical order — where any two either
// compose or conflict, and none fails the rule table's order check.
func TestAxisFlagsFollowCanonicalOrder(t *testing.T) {
	stock := campaign.StockAxisNames()
	var args []string
	for _, n := range axisFlags {
		if !slices.Contains(stock, n) {
			t.Errorf("-%s is not a stock axis", n)
		}
		args = append(args, "-"+n, validToken[n])
	}
	fs := flag.NewFlagSet("rsstcp-campaign", flag.ContinueOnError)
	axes := campaign.NewAxisFlags(fs, axisFlags, nil, true)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	compiled := axes.Axes()
	var names []string
	for _, a := range compiled {
		names = append(names, a.Name)
	}
	if !slices.Equal(names, axisFlags) {
		t.Fatalf("compiled axis order %v, flag list %v: not a sub-sequence of the canonical order", names, axisFlags)
	}
	for i, a := range compiled {
		for _, b := range compiled[i+1:] {
			err := campaign.Plan{Axes: []campaign.Axis{a, b}}.Validate()
			if err != nil && !strings.Contains(err.Error(), "conflicts with") {
				t.Errorf("-%s then -%s: %v", a.Name, b.Name, err)
			}
		}
	}
}
