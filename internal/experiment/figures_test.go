package experiment

import (
	"strings"
	"testing"
	"time"
)

// Shape assertions for the paper's results. These are the claims
// EXPERIMENTS.md reports; keep them tight but not brittle.

func TestFigure1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full 25s figure regeneration")
	}
	t.Parallel()
	fig, err := Figure1(PaperPath(), 25*time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Seconds) != 26 {
		t.Fatalf("rows = %d, want 26 (0..25s)", len(fig.Seconds))
	}
	// Standard TCP accumulates send-stalls, starting within the first
	// seconds (slow-start overshoot).
	final := fig.Standard[len(fig.Standard)-1]
	if final < 1 {
		t.Errorf("standard final cumulative stalls = %v, want >= 1", final)
	}
	early := fig.Standard[3] // by t=3s
	if early < 1 {
		t.Errorf("standard stalls by 3s = %v, want >= 1 (slow-start overshoot)", early)
	}
	// The series is non-decreasing (cumulative).
	for i := 1; i < len(fig.Standard); i++ {
		if fig.Standard[i] < fig.Standard[i-1] {
			t.Fatalf("standard cumulative series decreased at %d", i)
		}
	}
	// The proposed scheme stays at (or near) zero for the whole run.
	rssFinal := fig.Restricted[len(fig.Restricted)-1]
	if rssFinal != 0 {
		t.Errorf("restricted final cumulative stalls = %v, want 0", rssFinal)
	}
	if final <= rssFinal {
		t.Errorf("no separation: standard %v vs restricted %v", final, rssFinal)
	}
}

func TestFigure1TableRendering(t *testing.T) {
	t.Parallel()
	fig, err := Figure1(PaperPath(), 5*time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	tbl := fig.Table()
	s := tbl.String()
	for _, want := range []string{"Figure 1", "seconds", "standard-tcp", "restricted-ss"} {
		if !strings.Contains(s, want) {
			t.Errorf("table missing %q:\n%s", want, s)
		}
	}
	if len(tbl.Rows) != 6 {
		t.Errorf("rows = %d, want 6", len(tbl.Rows))
	}
}

func TestThroughputImprovement(t *testing.T) {
	if testing.Short() {
		t.Skip("two full 25s runs")
	}
	t.Parallel()
	// The paper's headline: restricted beats standard by tens of percent
	// on the 100 Mbps / 60 ms path (paper: ~40%, shape target: >= 15%).
	std, err := ThroughputOf(PaperPath(), AlgStandard, 25*time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	rss, err := ThroughputOf(PaperPath(), AlgRestricted, 25*time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(rss) / float64(std)
	if ratio < 1.15 {
		t.Errorf("rss/std = %.3f, want >= 1.15 (paper: ~1.40)", ratio)
	}
	t.Logf("restricted/standard = %.3f (std %.1f Mbps, rss %.1f Mbps)",
		ratio, float64(std)/1e6, float64(rss)/1e6)
}

func TestRestrictedApproachesIdealUpperBound(t *testing.T) {
	if testing.Short() {
		t.Skip("two full 25s runs")
	}
	t.Parallel()
	rss, err := ThroughputOf(PaperPath(), AlgRestricted, 25*time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := ThroughputOf(PaperPath(), AlgStallWait, 25*time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	if float64(rss) < 0.95*float64(ideal) {
		t.Errorf("rss %.1f Mbps below 95%% of stall-free ideal %.1f Mbps",
			float64(rss)/1e6, float64(ideal)/1e6)
	}
}
