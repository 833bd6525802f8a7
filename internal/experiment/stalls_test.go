package experiment

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"rsstcp/internal/telemetry"
)

// stallEvents counts the flight recorder's send-stall events, in all and for
// one flow ID, from its JSONL dump. Senders write one per stall, on the same
// path that bumps their Web100 SendStall, so it is an independent tally of
// the same events.
func stallEvents(t *testing.T, s *Scenario, flow int32) (all, mine int64) {
	t.Helper()
	if n := s.FR.Evicted(); n != 0 {
		t.Fatalf("flight recorder evicted %d events; the tally would be short", n)
	}
	kind := `"kind":"` + telemetry.KindStall.String() + `"`
	owner := fmt.Sprintf(`"flow":%d,`, flow)
	for _, line := range strings.Split(string(s.FR.AppendJSONL(nil)), "\n") {
		if strings.Contains(line, kind) {
			all++
			if strings.Contains(line, owner) {
				mine++
			}
		}
	}
	return all, mine
}

// TestStallCountsAgree: Web100's SendStall is the only stall count.
// Result.Stalls is the measured flow's SendStall, and Totals.Stalls sums
// SendStall over static flows, live churn flows and churn flows detached
// before the end — each checked against the flight recorder's tally. On the
// paper path with standard slow-start (Figure 1) the measured flow stalls; a
// churn run on a short IFQ stalls flows of every kind.
func TestStallCountsAgree(t *testing.T) {
	t.Parallel()
	paper := Config{
		Flows:    []FlowSpec{{Alg: AlgStandard}},
		Duration: 5 * time.Second, Seed: 1, EventLog: 1 << 20,
	}
	churn := churnCfg()
	churn.Path = PaperPath()
	churn.Path.TxQueueLen = 10
	churn.Flows = []FlowSpec{{Alg: AlgStandard}}
	churn.Churn.Size = "exp:300k"
	churn.Duration = 3 * time.Second
	churn.EventLog = 1 << 20

	for name, cfg := range map[string]Config{"paper": paper, "churn": churn} {
		s, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := s.Run()
		all, measured := stallEvents(t, s, int32(s.Flows[0].ID))
		if res.Stalls == 0 {
			t.Fatalf("%s: the measured flow never stalled — bad test premise", name)
		}
		if res.Stalls != res.Stats.SendStall || res.Stalls != measured {
			t.Errorf("%s: Result.Stalls %d, its SendStall %d, its stall events %d",
				name, res.Stalls, res.Stats.SendStall, measured)
		}
		var static, live int64
		for _, f := range s.Flows {
			static += f.Sender.Stats().SendStall
		}
		for _, f := range s.churn.live {
			live += f.Sender.Stats().SendStall
		}
		detached := s.churn.totals.Stalls
		if sum := static + live + detached; res.Totals.Stalls != sum || res.Totals.Stalls != all {
			t.Errorf("%s: Totals.Stalls %d, SendStall static %d + live %d + detached %d = %d, stall events %d",
				name, res.Totals.Stalls, static, live, detached, sum, all)
		}
		if name == "churn" && (live == 0 || detached == 0) {
			t.Errorf("churn: live flows stalled %d times, detached ones %d — bad test premise", live, detached)
		}
		if name == "paper" {
			if sr := s.StallSeries(0); int64(sr.Len()) != res.Stalls || int64(sr.At(s.Eng.Now())) != res.Stalls {
				t.Errorf("paper: stall series has %d points ending at %v, want %d of each",
					sr.Len(), sr.At(s.Eng.Now()), res.Stalls)
			}
		}
	}
}

// TestTracedChurnNamesEverySeries: a traced run records no series for its
// dynamic flows, so the recorder holds no series named "" and WriteCSV's
// header has no empty column.
func TestTracedChurnNamesEverySeries(t *testing.T) {
	t.Parallel()
	cfg := churnCfg()
	cfg.Traceless = false
	cfg.Churn.Load = 0.5
	cfg.Churn.Size = "fixed:64k"
	cfg.Duration = 3 * time.Second
	s, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.FCT == nil || res.FCT.Count == 0 {
		t.Fatal("no churn flow completed — bad test premise")
	}
	var csv bytes.Buffer
	if err := s.Rec.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	header, _, _ := strings.Cut(csv.String(), "\n")
	for _, col := range strings.Split(header, ",") {
		if col == "" {
			t.Errorf("CSV header %q has an empty column", header)
		}
	}
}
