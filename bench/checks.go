package main

import (
	"math"
	"time"

	"rsstcp/internal/campaign"
	"rsstcp/internal/experiment"
	"rsstcp/internal/lifecycle"
	"rsstcp/internal/sim"
	"rsstcp/internal/unit"
)

// Output checks. A repetition that fails any of them counts as a failed
// operation; the timing of a wrong answer is worth nothing.

// checkScenario verifies one finished scenario against laws that hold for
// any correct run, then tears it down and verifies nothing leaked.
func checkScenario(res *repResult, s *experiment.Scenario, r experiment.Result, c scenarioCase) {
	// Physics: no flow beats its slowest hop, no hop is busier than always.
	if slowest := slowestHop(s); r.Throughput > slowest {
		res.failf("goodput %v exceeds bottleneck %v", r.Throughput, slowest)
	}
	for i, h := range r.Hops {
		if h.Utilization > 1+1e-9 {
			res.failf("hop %d utilization %.6f > 1", i, h.Utilization)
		}
	}
	if r.Utilization > 1+1e-9 {
		res.failf("utilization %.6f > 1", r.Utilization)
	}

	// Flow conservation: every arrival was served, is live, or was refused.
	// The arrival count comes from replaying the seed's arrival stream on
	// an empty engine, not from the scenario.
	if ch := s.Cfg.Churn; ch != nil {
		arrivals, err := countArrivals(s, *ch)
		if err != nil {
			res.failf("arrival replay: %v", err)
		}
		var done int64
		if r.FCT != nil {
			done = r.FCT.Count
		}
		res.Counts.Arrivals += arrivals
		if got := done + int64(r.FlowsActive) + r.FlowsRefused; got != arrivals {
			res.failf("done %d + live %d + refused %d = %d, want %d arrivals",
				done, r.FlowsActive, r.FlowsRefused, got, arrivals)
		}
	}

	if n := s.Eng.Leaked(); n != 0 {
		res.failf("%d calendar entries leaked", n)
	}

	// Teardown: stop arrivals, detach the static flows, let the dynamic
	// ones finish and the in-flight segments land, then the private pool
	// must balance. A population that cannot drain is reported as is.
	if !c.noDrain {
		s.StopChurn()
		for _, f := range s.Flows {
			s.DetachFlow(f)
		}
		deadline := s.Eng.Now()
		for step := 0; s.LiveFlows() > 0 && step < 200; step++ {
			deadline = deadline.Add(time.Second)
			s.Eng.RunUntil(deadline)
		}
		// The last completion can leave a spurious retransmission or an ACK
		// in flight; give strays time to reach a demux and be released.
		s.Eng.RunUntil(deadline.Add(2 * time.Second))
		if n := s.LiveFlows(); n != 0 {
			res.failf("%d dynamic flows still live after drain", n)
		}
		if n := s.Eng.Leaked(); n != 0 {
			res.failf("%d calendar entries leaked after teardown", n)
		}
	}
	gets, releases := s.SegCounters()
	res.Counts.PoolGets += gets
	res.Counts.PoolRelease += releases
	if !c.noDrain && gets != releases {
		res.failf("segment pool imbalance: %d gets, %d releases", gets, releases)
	}
	if gets < releases {
		res.failf("segment pool released more than it issued: %d gets, %d releases", gets, releases)
	}
}

func slowestHop(s *experiment.Scenario) unit.Bandwidth {
	slowest := s.Topo.Hops[0].Rate
	for _, h := range s.Topo.Hops {
		slowest = min(slowest, h.Rate)
	}
	return slowest
}

// countArrivals replays the churn spec's arrival process for the run's seed
// on a scratch engine and counts launches up to the run's end.
func countArrivals(s *experiment.Scenario, ch experiment.ChurnSpec) (int64, error) {
	src, err := lifecycle.ParseSource(ch.Arrivals)
	if err != nil {
		return 0, err
	}
	if ch.Load > 0 {
		dist, err := lifecycle.ParseSizeDist(ch.Size)
		if err != nil {
			return 0, err
		}
		src = src.WithRate(ch.Load * slowestHop(s).BytesPerSecond() / dist.Mean())
	}
	eng := sim.NewEngine()
	var n int64
	src.Start(eng, sim.NewRNG(lifecycle.StreamSeed(s.Cfg.Seed, lifecycle.SaltArrivals)), func() { n++ })
	eng.RunUntil(sim.At(s.Cfg.Duration))
	src.Stop()
	return n, nil
}

// checkCampaign verifies every cell of a finished report against the same
// physics, and folds the cell sums into the rep's digest.
func checkCampaign(res *repResult, rep *campaign.Report) {
	for _, c := range rep.Cells {
		cfg := c.Config()
		if tp, ok := c.Metric("throughput_mbps"); ok {
			if limit := float64(cfg.Path.Bottleneck) / float64(unit.Mbps); tp.Max > limit {
				res.failf("cell %s: goodput %.3f Mbps exceeds bottleneck %.0f", c.Key, tp.Max, limit)
			}
			res.Digest.GoodputBits += int64(math.Round(tp.Mean * float64(tp.N) * 1e6))
			res.Counts.GoodputMbpsSum += tp.Mean
		}
		if u, ok := c.Metric("utilization"); ok && u.Max > 1+1e-9 {
			res.failf("cell %s: utilization %.6f > 1", c.Key, u.Max)
		}
		if st, ok := c.Metric("stalls"); ok {
			n := int64(math.Round(st.Mean * float64(st.N)))
			res.Digest.Stalls += n
			res.Counts.Stalls += n
		}
		for _, name := range []string{"router_drops", "injected_drops"} {
			if d, ok := c.Metric(name); ok {
				n := int64(math.Round(d.Mean * float64(d.N)))
				res.Digest.Drops += n
				res.Counts.Drops += n
			}
		}
	}
}

// digestBook remembers the first digest seen for each seed; every later
// repetition with that seed must reproduce it. For campaign_grid the digest
// carries the SHA-256 of the JSON export, so equality is the byte
// comparison.
type digestBook map[uint64]digest

func (b digestBook) check(res *repResult) {
	want, seen := b[res.Seed]
	if !seen {
		b[res.Seed] = res.Digest
		return
	}
	if res.Digest != want {
		res.failf("seed %d digest changed: got %v, first rep had %v", res.Seed, res.Digest, want)
	}
}
