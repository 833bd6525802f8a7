package experiment

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"rsstcp/internal/pid"
	"rsstcp/internal/unit"
)

func TestBuildDefaults(t *testing.T) {
	t.Parallel()
	s, err := Build(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Flows) != 1 {
		t.Fatalf("flows = %d, want 1 default flow", len(s.Flows))
	}
	if s.Flows[0].Spec.Alg != AlgStandard && s.Flows[0].Spec.Alg != "" {
		t.Errorf("default alg = %q", s.Flows[0].Spec.Alg)
	}
	if s.Cfg.Duration != 25*time.Second {
		t.Errorf("default duration = %v, want 25s (Figure 1 span)", s.Cfg.Duration)
	}
}

func TestBuildRejectsUnknownAlgorithm(t *testing.T) {
	t.Parallel()
	_, err := Build(Config{Flows: []FlowSpec{{Alg: "bogus"}}})
	if err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if !strings.Contains(err.Error(), "bogus") {
		t.Errorf("error %q does not name the algorithm", err)
	}
}

func TestPaperPathParameters(t *testing.T) {
	t.Parallel()
	p := PaperPath()
	if p.Bottleneck != 100*unit.Mbps {
		t.Errorf("bottleneck = %v, want 100Mbps", p.Bottleneck)
	}
	if p.RTT != 60*time.Millisecond {
		t.Errorf("RTT = %v, want 60ms", p.RTT)
	}
	if p.TxQueueLen != 100 {
		t.Errorf("txqueuelen = %d, want 100", p.TxQueueLen)
	}
}

func TestFixedSizeTransferStopsEarly(t *testing.T) {
	t.Parallel()
	s, err := Build(Config{
		Path:     PaperPath(),
		Flows:    []FlowSpec{{Alg: AlgRestricted, Bytes: 5 << 20}},
		Duration: 60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if !s.Flows[0].Sender.Finished() {
		t.Fatal("5 MB transfer did not finish in 60s")
	}
	if res.Stats.ThruOctetsAcked != 5<<20 {
		t.Errorf("acked %d, want %d", res.Stats.ThruOctetsAcked, 5<<20)
	}
	// Throughput uses the completion time, not the run duration.
	if res.Stats.EndTime == 0 {
		t.Error("EndTime not recorded")
	}
}

func TestRestrictedFlowExposesRSS(t *testing.T) {
	t.Parallel()
	s, err := Build(Config{Flows: []FlowSpec{{Alg: AlgRestricted}}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Flows[0].RSS == nil {
		t.Fatal("RSS component missing on restricted flow")
	}
	if s.Flows[0].RSS.Setpoint() != 90 {
		t.Errorf("setpoint = %v, want 90", s.Flows[0].RSS.Setpoint())
	}
	// Non-restricted flows must not carry an RSS.
	s2, err := Build(Config{Flows: []FlowSpec{{Alg: AlgStandard}}})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Flows[0].RSS != nil {
		t.Error("standard flow carries an RSS component")
	}
}

func TestSeriesAccessors(t *testing.T) {
	t.Parallel()
	s, err := Build(Config{Flows: []FlowSpec{{Alg: AlgStandard}}, Duration: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	for _, prefix := range []string{"cwnd_segs", "ifq"} {
		name := fmt.Sprintf("%s/%d", prefix, s.Flows[0].ID)
		if s.Rec.Series(name).Len() == 0 {
			t.Errorf("%s series empty after run", name)
		}
	}
	// Stall series exists even when no stalls occurred.
	_ = s.StallSeries(0)
}

func TestParallelStreamsShareOneHost(t *testing.T) {
	if testing.Short() {
		t.Skip("eight 20s parallel-stream runs")
	}
	t.Parallel()
	// Four streams on one host (GridFTP style) share the IFQ. Four
	// independent PID controllers quadruple the loop gain, so a few
	// residual stalls are physical — but RSS must still beat four
	// standard streams on both stall count and aggregate throughput.
	run := func(alg Algorithm) (total float64, stalls int64, s *Scenario) {
		flows := make([]FlowSpec, 4)
		for i := range flows {
			// 80% set point: four interleaved senders put more burst
			// noise on the shared IFQ than one, so the controller
			// needs more headroom than the single-flow 90%.
			flows[i] = FlowSpec{Alg: alg, Host: 1, SetpointFraction: 0.8}
		}
		s, err := Build(Config{Path: PaperPath(), Flows: flows, Duration: 20 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		s.Run()
		for i := range flows {
			r := s.ResultFor(i)
			total += float64(r.Throughput)
			stalls += r.Stalls
		}
		return total, stalls, s
	}
	rssThr, rssStalls, s := run(AlgRestricted)
	stdThr, stdStalls, _ := run(AlgStandard)
	if len(s.hosts) != 1 {
		t.Fatalf("hosts = %d, want 1 shared", len(s.hosts))
	}
	if rssThr < 80e6 {
		t.Errorf("aggregate RSS throughput = %.1f Mbps, want near 100", rssThr/1e6)
	}
	if rssStalls >= stdStalls {
		t.Errorf("parallel RSS stalls = %d, not below standard's %d", rssStalls, stdStalls)
	}
	if rssThr < stdThr {
		t.Errorf("parallel RSS %.1f Mbps below standard %.1f Mbps", rssThr/1e6, stdThr/1e6)
	}
	if nicStats := s.Flows[0].NIC.Stats(); nicStats.MaxQueue > 100 {
		t.Errorf("shared IFQ exceeded capacity: %d", nicStats.MaxQueue)
	}
}

func TestSeparateHostsByDefault(t *testing.T) {
	t.Parallel()
	s, err := Build(Config{Flows: []FlowSpec{{Alg: AlgStandard}, {Alg: AlgStandard}}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Flows[0].NIC == s.Flows[1].NIC {
		t.Error("flows with Host=0 share a NIC")
	}
}

func TestCrossTrafficCausesRouterDrops(t *testing.T) {
	t.Parallel()
	// Two standard flows on separate hosts into one bottleneck: combined
	// arrivals exceed the service rate, the router queue fills, drops
	// follow, and both flows still make progress.
	s, err := Build(Config{
		Path:     PaperPath(),
		Flows:    []FlowSpec{{Alg: AlgStandard}, {Alg: AlgStandard, StartAt: time.Second}},
		Duration: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.RouterDrops == 0 {
		t.Error("no router drops with two competing flows")
	}
	for i := 0; i < 2; i++ {
		r := s.ResultFor(i)
		if r.Stats.ThruOctetsAcked == 0 {
			t.Errorf("flow %d starved completely", i)
		}
	}
}

func TestTunePlantProducesTrajectory(t *testing.T) {
	t.Parallel()
	plant := TunePlant(PaperPath(), 3*time.Second)
	ts, pv := plant.RunP(500) // rate units: segments/second per packet of error
	if len(ts) < 100 || len(ts) != len(pv) {
		t.Fatalf("trajectory %d/%d points", len(ts), len(pv))
	}
	// The trajectory must actually reach the queueing regime.
	max := 0.0
	for _, v := range pv {
		if v > max {
			max = v
		}
	}
	if max < 10 {
		t.Errorf("max occupancy = %v, plant never exercised the queue", max)
	}
}

// TestTuneRejectsNegativeDuration: a negative probe length is an error; it
// used to run the 30 s default.
func TestTuneRejectsNegativeDuration(t *testing.T) {
	t.Parallel()
	if _, _, err := Tune(PaperPath(), -time.Second, pid.RulePaper); err == nil ||
		err.Error() != "experiment: negative probe duration -1s" {
		t.Errorf("Tune(-1s) = %v, want the negative-duration error", err)
	}
}
