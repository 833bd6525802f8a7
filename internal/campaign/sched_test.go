package campaign

import (
	"os"
	"strings"
	"testing"
)

// TestGridGoldenSchedulerBackends pins the golden grid output to the ladder
// calendar, with the endpoint timers on it and on the wheel over it. The
// golden bytes were captured on the binary heap, before the ladder existed,
// so a match still checks the ladder against the heap end to end: faster
// events change nothing observable.
func TestGridGoldenSchedulerBackends(t *testing.T) {
	t.Parallel()
	want, err := os.ReadFile("testdata/grid_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	g := goldenGrid()
	for _, wheel := range []bool{false, true} {
		p := g.Plan()
		p.Base.TimerWheel = wheel
		rep, err := ExecutePlan(p, Options{Workers: 4, RetainRuns: true})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := rep.WriteJSON(&sb); err != nil {
			t.Fatal(err)
		}
		if got := sb.String(); got != string(want) {
			t.Fatalf("grid JSON (timer wheel %v) diverged from golden output\ngolden %d bytes, got %d bytes\n%s",
				wheel, len(want), len(got), firstDiff(string(want), got))
		}
	}
}
