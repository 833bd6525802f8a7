package main

import (
	"flag"
	"slices"
	"strings"
	"testing"

	"rsstcp/internal/campaign"
)

// validToken is one in-domain value per axis flag.
var validToken = map[string]string{"bw": "100", "rtt": "60ms", "ifq": "100"}

// TestAxisFlagsAreStockAxes: every axis flag names a stock axis, and its help
// line comes from the axis declaration.
func TestAxisFlagsAreStockAxes(t *testing.T) {
	stock := campaign.StockAxisNames()
	for _, n := range axisFlags {
		if !slices.Contains(stock, n) {
			t.Errorf("-%s is not a stock axis", n)
		}
		if campaign.AxisHelp(n) == "" {
			t.Errorf("stock axis %q has no help line", n)
		}
	}
}

// TestAxisFlagOrderFollowsRules: with every axis flag set, the flag compiler
// stacks them in list order — so the list is a sub-sequence of the canonical
// order — and any two either compose or conflict; none fails the rule
// table's order check, which would reject an invocation only for where the
// compiler put the axis.
func TestAxisFlagOrderFollowsRules(t *testing.T) {
	var args []string
	for _, n := range axisFlags {
		args = append(args, "-"+n+"="+validToken[n])
	}
	fs := flag.NewFlagSet("rsstcp-tune", flag.ContinueOnError)
	axes := campaign.NewAxisFlags(fs, axisFlags, nil, false)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	compiled := axes.Axes()
	var names []string
	for _, a := range compiled {
		names = append(names, a.Name)
	}
	if !slices.Equal(names, axisFlags) {
		t.Fatalf("compiled axis order %v, want %v: the flag list is not a sub-sequence of the canonical order", names, axisFlags)
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
