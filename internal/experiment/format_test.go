package experiment

import (
	"strings"
	"testing"
)

func TestTableRenderAlignment(t *testing.T) {
	tbl := &Table{
		Title:  "demo",
		Header: []string{"name", "value"},
		Notes:  []string{"a note"},
	}
	tbl.Add("short", 1.5)
	tbl.Add("a-much-longer-name", "x")
	out := tbl.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 {
		t.Fatalf("lines = %d, want 6 (title, header, rule, 2 rows, note)", len(lines))
	}
	if lines[0] != "demo" {
		t.Errorf("title line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "name") {
		t.Errorf("header = %q", lines[1])
	}
	if !strings.Contains(out, "# a note") {
		t.Errorf("note missing:\n%s", out)
	}
	// Float cells render with two decimals.
	if !strings.Contains(out, "1.50") {
		t.Errorf("float formatting missing:\n%s", out)
	}
}

func TestTableEmptyRows(t *testing.T) {
	tbl := &Table{Header: []string{"only"}}
	out := tbl.String()
	if !strings.Contains(out, "only") {
		t.Errorf("header missing from empty table: %q", out)
	}
}
