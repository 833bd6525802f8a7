package main

import (
	"slices"
	"testing"

	"rsstcp/internal/campaign"
)

// TestClassicAxesAreStockAxes: every classic flag names a registered axis,
// and the rule-table lookups main relies on name axes that exist.
func TestClassicAxesAreStockAxes(t *testing.T) {
	stock := campaign.StockAxisNames()
	for _, n := range classicAxes {
		if !slices.Contains(stock, n) {
			t.Errorf("classic flag -%s is not a stock axis", n)
		}
	}
	for _, owner := range []string{"matchup", "topo"} {
		if len(campaign.AxisConflicts(owner)) == 0 {
			t.Errorf("rule table lists no conflicts for %q; main drops classic axes by it", owner)
		}
	}
}
