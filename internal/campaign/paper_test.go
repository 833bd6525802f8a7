package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"rsstcp/internal/experiment"
	"rsstcp/internal/unit"
)

var updatePaperGolden = flag.Bool("update-paper-golden", false,
	"rewrite testdata/paper_golden.json from this build's output (TestPaperSuiteGolden the hashes, TestPaperSuite the means)")

const paperGoldenPath = "testdata/paper_golden.json"

// paperGolden is testdata/paper_golden.json: the paper suite pinned at two
// durations, so a change that moves any of the paper's numbers fails a test
// that -short runs, and the full-length means stay exact.
type paperGolden struct {
	Note string `json:"note"`
	// ReportSHA256 is the SHA-256 of each study's Report.WriteJSON for
	// PaperSuite(3 s) run with Options{}.
	ReportSHA256 map[string]string `json:"report_sha256_3s"`
	// Means are the 25 s suite's cell means, keyed "study cell-key metric".
	Means map[string]float64 `json:"means_25s"`
}

// readPaperGolden loads the golden file; when updating, a missing file reads
// as empty.
func readPaperGolden(t *testing.T) paperGolden {
	t.Helper()
	var g paperGolden
	raw, err := os.ReadFile(paperGoldenPath)
	if err != nil {
		if *updatePaperGolden && os.IsNotExist(err) {
			return g
		}
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}
	return g
}

func writePaperGolden(t *testing.T, g paperGolden) {
	t.Helper()
	js, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(paperGoldenPath, append(js, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestPaperSuiteGolden runs the whole suite at 3 s and checks each study's
// JSON report against its pinned hash: the paper's numbers, not only the
// grid golden's 16 cells, are held fixed in -short.
func TestPaperSuiteGolden(t *testing.T) {
	got := map[string]string{}
	for _, st := range PaperSuite(3 * time.Second) {
		rep, err := ExecutePlan(st.Plan, Options{})
		if err != nil {
			t.Fatalf("%s: %v", st.ID, err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		got[st.ID] = hex.EncodeToString(sum[:])
	}
	g := readPaperGolden(t)
	if *updatePaperGolden {
		g.ReportSHA256 = got
		writePaperGolden(t, g)
		return
	}
	if len(g.ReportSHA256) != len(got) {
		t.Fatalf("golden holds %d studies, the suite has %d", len(g.ReportSHA256), len(got))
	}
	for id, want := range g.ReportSHA256 {
		if got[id] != want {
			t.Errorf("%s: report SHA-256 %s, golden %s", id, got[id], want)
		}
	}
}

// studyByID returns the suite's study with the given id.
func studyByID(t *testing.T, suite []Study, id string) Study {
	t.Helper()
	i := slices.IndexFunc(suite, func(s Study) bool { return s.ID == id })
	if i < 0 {
		t.Fatalf("paper suite has no study %q", id)
	}
	return suite[i]
}

// swept lists the values get reads off the plan's cells, in expansion order,
// without repeats: what the plan actually sweeps, not what its labels say.
func swept[T comparable](p Plan, get func(experiment.Config) T) []T {
	var out []T
	for _, c := range p.Cells() {
		if v := get(c.Config); !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	return out
}

// TestPaperSuiteDeclarations pins the suite to the value lists the retired
// figures.go generators defaulted to, and checks that the Base flows T6 and
// T7 rely on survive axis expansion.
func TestPaperSuiteDeclarations(t *testing.T) {
	suite := PaperSuite(time.Second)
	if len(suite) != 7 {
		t.Fatalf("studies = %d, want 7 (T1–T3, T5–T8)", len(suite))
	}
	for _, st := range suite {
		if err := st.Plan.Validate(); err != nil {
			t.Errorf("%s: %v", st.ID, err)
		}
		if st.Plan.Base.Path != experiment.PaperPath() {
			t.Errorf("%s: base path %+v is not the paper path", st.ID, st.Plan.Base.Path)
		}
	}
	ms := time.Millisecond
	alg := func(c experiment.Config) experiment.Algorithm { return c.Flows[0].Alg }
	for _, tc := range []struct {
		id        string
		got, want any
	}{
		{"throughput", swept(studyByID(t, suite, "throughput").Plan, alg), experiment.Algorithms()},
		{"ifqsweep", swept(studyByID(t, suite, "ifqsweep").Plan, func(c experiment.Config) int { return c.Path.TxQueueLen }),
			[]int{50, 100, 200, 500, 1000, 2000}},
		{"rttsweep", swept(studyByID(t, suite, "rttsweep").Plan, func(c experiment.Config) time.Duration { return c.Path.RTT }),
			[]time.Duration{10 * ms, 30 * ms, 60 * ms, 120 * ms, 200 * ms}},
		{"setpoint", swept(studyByID(t, suite, "setpoint").Plan, func(c experiment.Config) float64 { return c.Flows[0].SetpointFraction }),
			[]float64{0.5, 0.7, 0.9, 0.95, 1.0}},
		{"nicrate", swept(studyByID(t, suite, "nicrate").Plan, func(c experiment.Config) unit.Bandwidth { return c.Path.NICRate }),
			[]unit.Bandwidth{100 * unit.Mbps, 200 * unit.Mbps, 1000 * unit.Mbps}},
		{"ticksweep", swept(studyByID(t, suite, "ticksweep").Plan, func(c experiment.Config) time.Duration { return c.Flows[0].Tick }),
			[]time.Duration{1 * ms, 2 * ms, 5 * ms, 10 * ms, 20 * ms, 60 * ms}},
	} {
		if !reflect.DeepEqual(tc.got, tc.want) {
			t.Errorf("%s sweeps %v, want %v", tc.id, tc.got, tc.want)
		}
	}

	cross := experiment.FlowSpec{Alg: experiment.AlgStandard, StartAt: 2 * time.Second, Cross: true}
	for _, c := range studyByID(t, suite, "friendliness").Plan.Cells() {
		if len(c.Config.Flows) != 2 || c.Config.Flows[1] != cross || c.Config.Flows[0].Cross {
			t.Errorf("friendliness %s: flows %+v, want [primary, %+v]", c.Key, c.Config.Flows, cross)
		}
	}
	for _, c := range studyByID(t, suite, "nicrate").Plan.Cells() {
		if len(c.Config.Flows) != 1 || !c.Config.Flows[0].SACK || c.Config.Flows[0].Alg == "" {
			t.Errorf("nicrate %s: flows %+v, want one SACK flow with the swept algorithm", c.Key, c.Config.Flows)
		}
	}
}

// TestPaperSuite runs the paper's tables through the campaign engine and
// asserts the shapes EXPERIMENTS.md reports, reading cell means off the
// report, and checks every cell mean exactly against testdata/paper_golden.json.
// Each subtest carries what was a figures_test.go test before the tables
// became plans.
func TestPaperSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("58 full 25 s runs")
	}
	suite := PaperSuite(25 * time.Second)
	reports := map[string]*Report{}
	for _, st := range suite {
		rep, err := ExecutePlan(st.Plan, Options{})
		if err != nil {
			t.Fatalf("%s: %v", st.ID, err)
		}
		reports[st.ID] = rep
	}
	means := map[string]float64{}
	for id, rep := range reports {
		for _, c := range rep.Cells {
			for _, m := range c.Metrics {
				means[id+" "+c.Key+" "+m.Name] = m.Mean
			}
		}
	}
	g := readPaperGolden(t)
	if *updatePaperGolden {
		g.Means = means
		writePaperGolden(t, g)
	} else {
		if len(g.Means) != len(means) {
			t.Errorf("golden holds %d cell means, the suite makes %d", len(g.Means), len(means))
		}
		for k, want := range g.Means {
			if got, ok := means[k]; !ok || got != want {
				t.Errorf("%s: mean %v, golden %v", k, got, want)
			}
		}
	}
	mean := func(t *testing.T, id, key, metric string) float64 {
		t.Helper()
		for _, c := range reports[id].Cells {
			if c.Key == key {
				s, ok := c.Metric(metric)
				if !ok {
					t.Fatalf("%s %s: no metric %q", id, key, metric)
				}
				return s.Mean
			}
		}
		t.Fatalf("%s: no cell %q", id, key)
		return 0
	}
	advantage := func(t *testing.T, id, at string) float64 {
		return mean(t, id, at+"/alg=restricted", "throughput_mbps") / mean(t, id, at+"/alg=standard", "throughput_mbps")
	}

	t.Run("ThroughputTableContainsAllAlgorithms", func(t *testing.T) {
		cells := reports["throughput"].Cells
		if len(cells) != len(experiment.Algorithms()) {
			t.Fatalf("cells = %d, want %d", len(cells), len(experiment.Algorithms()))
		}
		for _, alg := range experiment.Algorithms() {
			if mean(t, "throughput", "alg="+string(alg), "throughput_mbps") <= 0 {
				t.Errorf("%s moved no data", alg)
			}
		}
	})
	t.Run("IFQSweepShape", func(t *testing.T) {
		// At IFQ 100 the advantage is large; at IFQ 2000 the standard
		// sender no longer stalls during the run, closing most of the gap —
		// the memory-for-throughput trade of paper §2.
		small, large := advantage(t, "ifqsweep", "ifq=100"), advantage(t, "ifqsweep", "ifq=2000")
		if small < 1.10 {
			t.Errorf("advantage at IFQ 100 = %.2f, want >= 1.10", small)
		}
		if large >= small {
			t.Errorf("advantage at IFQ 2000 (%.2f) not smaller than at 100 (%.2f)", large, small)
		}
	})
	t.Run("RTTSweepAdvantageGrowsWithRTT", func(t *testing.T) {
		short, long := advantage(t, "rttsweep", "rtt=10ms"), advantage(t, "rttsweep", "rtt=120ms")
		if long <= short {
			t.Errorf("advantage at 120ms (%.2f) not above 10ms (%.2f)", long, short)
		}
	})
	t.Run("SetpointSweepShape", func(t *testing.T) {
		// Both set points avoid stalls on the paper path.
		for _, sp := range []string{"0.5", "0.9"} {
			if s := mean(t, "setpoint", "alg=restricted/setpoint="+sp, "stalls"); s != 0 {
				t.Errorf("setpoint %s produced %g stalls", sp, s)
			}
		}
	})
	t.Run("FriendlinessCrossFlowShare", func(t *testing.T) {
		// This records a measured finding of this repo's T6, not a claim
		// taken from the paper: a standard primary leaves the late standard
		// cross flow about a third of the aggregate, while a restricted
		// primary leaves it about 3 %. (Jain's index over two flows never
		// drops below 0.5, so it cannot show this.)
		st := studyByID(t, suite, "friendliness")
		for _, c := range st.Plan.Cells() {
			s, err := experiment.Build(st.Plan.Config(c, 0))
			if err != nil {
				t.Fatal(err)
			}
			s.Run()
			cross := float64(s.ResultFor(1).Throughput) / 1e6
			share := cross / mean(t, "friendliness", c.Key, "throughput_mbps")
			t.Logf("%s: cross flow %.2f Mbps, %.1f%% of aggregate", c.Key, cross, 100*share)
			switch c.Key {
			case "alg=standard":
				if share < 0.25 {
					t.Errorf("standard primary leaves the cross flow %.1f%%, want >= 25%%", 100*share)
				}
			case "alg=restricted":
				if share >= 0.05 {
					t.Errorf("restricted primary leaves the cross flow %.1f%%, want < 5%%", 100*share)
				}
			}
		}
	})
}
