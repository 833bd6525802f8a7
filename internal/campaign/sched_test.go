package campaign

import (
	"os"
	"strings"
	"testing"
)

// schedulerBackends is every calendar backend a campaign can pin via
// Plan.Base.Scheduler. The empty name is the default resolution path
// (ladder) and rides along to prove the default itself is covered.
var schedulerBackends = []string{"", "heap", "wheel", "ladder"}

// TestChurnCampaignSchedulerDeterminism is the campaign half of the
// scheduler differential: the churn sweep renders byte-identical JSON on
// the binary heap, the timer wheel, and the ladder queue, at 1 and 4
// workers. Plan.Base carries the backend name precisely because it stays
// out of cell keys — every backend derives identical replicate seeds.
func TestChurnCampaignSchedulerDeterminism(t *testing.T) {
	t.Parallel()
	render := func(sched string, workers int) string {
		p := churnPlan(t)
		p.Base.Scheduler = sched
		rep, err := ExecutePlan(p, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var j strings.Builder
		if err := rep.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		return j.String()
	}
	want := render("heap", 1)
	for _, sched := range schedulerBackends {
		for _, workers := range []int{1, 4} {
			if got := render(sched, workers); got != want {
				t.Errorf("scheduler %q campaign JSON diverged from heap baseline at %d workers:\n%.1500s\nvs\n%.1500s",
					sched, workers, got, want)
			}
		}
	}
}

// TestGridGoldenSchedulerBackends pins the golden grid output to every
// calendar backend: the pre-ladder golden bytes reproduce exactly whether
// cells run on the heap, the wheel, or the ladder. This is the
// end-to-end "sub-25ns events change nothing observable" contract.
func TestGridGoldenSchedulerBackends(t *testing.T) {
	t.Parallel()
	want, err := os.ReadFile("testdata/grid_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	g := goldenGrid()
	for _, sched := range schedulerBackends {
		p := g.Plan()
		p.Base.Scheduler = sched
		rep, err := ExecutePlan(p, Options{Workers: 4, RetainRuns: true})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := rep.WriteJSON(&sb); err != nil {
			t.Fatal(err)
		}
		if got := sb.String(); got != string(want) {
			t.Fatalf("scheduler %q grid JSON diverged from golden output\ngolden %d bytes, got %d bytes\n%s",
				sched, len(want), len(got), firstDiff(string(want), got))
		}
	}
}
