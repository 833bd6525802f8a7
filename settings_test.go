package rsstcp_test

import (
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"rsstcp/internal/cc"
	"rsstcp/internal/core"
	"rsstcp/internal/netem"
	"rsstcp/internal/pid"
	"rsstcp/internal/tcp"
	"rsstcp/internal/zntune"
)

// inventory lists the exported fields of each configuration type: its
// settings, each of which has a row in DESIGN.md's "Settings" table naming
// what sets it, and its wiring (engine, pools, recorders, next hops), which
// the table leaves out.
var inventory = []struct {
	name     string
	typ      reflect.Type
	settings []string
	wiring   []string
}{
	{"tcp.Config", reflect.TypeFor[tcp.Config](),
		[]string{"MSS", "RcvWnd", "AckEvery", "DelAckTimeout", "SACK", "MinRTO", "MaxRTO", "InitialRTO", "RTOGranularity", "Stall"},
		[]string{"Pool", "Store", "Wheel", "Eng", "FR", "OnStall", "OnComplete"}},
	{"cc.RenoConfig", reflect.TypeFor[cc.RenoConfig](), []string{"IW", "InitialSsthresh"}, []string{"FR"}},
	{"cc.HyStart", reflect.TypeFor[cc.HyStart](), nil, nil},
	{"core.Config", reflect.TypeFor[core.Config](),
		[]string{"Gains", "SetpointFraction", "Tick", "OutMaxSegmentsPerSec", "AllowShrink", "DerivativeTau", "SmoothingTau"},
		[]string{"Sensor"}},
	{"pid.Config", reflect.TypeFor[pid.Config](),
		[]string{"Gains", "Setpoint", "OutMin", "OutMax", "IntegralBand", "DerivativeAlpha"}, nil},
	{"zntune.Options", reflect.TypeFor[zntune.Options](),
		[]string{"KpStart", "KpMax", "Factor", "Refine", "MinProminence", "DecayTol"}, nil},
	{"netem.Loss", reflect.TypeFor[netem.Loss](), []string{"P"}, []string{"RNG", "Next", "FR", "Eng", "Hop"}},
}

// TestSettingsInventory: every exported field of the configuration types is
// listed above as a setting or as wiring, and the settings are exactly the
// rows DESIGN.md's "Settings" table has for these types. A new setting must
// name its caller there; one nothing sets becomes a constant instead.
func TestSettingsInventory(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(design), "\n## Settings\n")
	if !ok {
		t.Fatal(`DESIGN.md has no "## Settings" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	rows := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z]+\\.[A-Za-z]+)\\.([A-Za-z]+)` \\|").FindAllStringSubmatch(section, -1) {
		rows[m[1]+"."+m[2]] = true
	}
	for _, ty := range inventory {
		var fields []string
		for i := range ty.typ.NumField() {
			if f := ty.typ.Field(i); f.IsExported() {
				fields = append(fields, f.Name)
			}
		}
		listed := slices.Concat(ty.settings, ty.wiring)
		for _, f := range fields {
			if !slices.Contains(listed, f) {
				t.Errorf("%s.%s is not in the inventory: list it, with its caller in DESIGN.md, or make it a constant", ty.name, f)
			}
		}
		for _, f := range listed {
			if !slices.Contains(fields, f) {
				t.Errorf("%s.%s is listed but %s has no such field", ty.name, f, ty.name)
			}
		}
		for _, f := range ty.settings {
			if !rows[ty.name+"."+f] {
				t.Errorf("DESIGN.md's Settings table has no row for %s.%s", ty.name, f)
			}
			delete(rows, ty.name+"."+f)
		}
		for r := range rows {
			if strings.HasPrefix(r, ty.name+".") {
				t.Errorf("DESIGN.md's Settings table has a row for %s, which is no setting of %s", r, ty.name)
			}
		}
	}
}
