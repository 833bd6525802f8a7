package main

import (
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

// TestAxisFlagOrderFollowsRules: any two axis flags, in list order, either
// compose or conflict; none fails the rule table's order check.
func TestAxisFlagOrderFollowsRules(t *testing.T) {
	for i, a := range axisFlags {
		for _, b := range axisFlags[i+1:] {
			var p campaign.Plan
			for _, n := range []string{a, b} {
				ax, err := campaign.ParseAxis(n, []string{validToken[n]})
				if err != nil {
					t.Fatal(err)
				}
				p.Axes = append(p.Axes, ax)
			}
			if err := p.Validate(); err != nil && !strings.Contains(err.Error(), "conflicts with") {
				t.Errorf("-%s then -%s: %v", a, b, err)
			}
		}
	}
}
