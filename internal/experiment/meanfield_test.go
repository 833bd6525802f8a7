package experiment

import (
	"fmt"
	"math"
	"testing"
	"time"

	"rsstcp/internal/netem"
	"rsstcp/internal/sim"
	"rsstcp/internal/stats"
	"rsstcp/internal/unit"
)

// Mean-field RED validation (EXPERIMENTS.md "Mean-field RED" study).
//
// McDonald & Reynier's mean-field model (PAPERS.md: math/0603325) and
// Reynier's stability analysis (cs/0609014) treat N TCP flows sharing one
// RED buffer in the many-flows scaling: capacity and thresholds grow
// linearly with N while per-flow conditions stay fixed. Two predictions
// fall out. First, the scaling law: the queue process is governed by a
// deterministic mean-field limit, so the per-flow queue share q̄/N and the
// relative fluctuation σ/q̄ are N-invariant, and q̄ tracks the square-root
// -law fixed point. Second, the stability condition: whether the limit is
// a quiet fixed point or a limit cycle depends on the loop gain
// κ ≈ L·(R̄C)³/4N² (L the RED slope, R̄ the equilibrium RTT, C the
// capacity in pkts/s) — gentle profiles are stable, steep ones oscillate.
// These tests hold the engine to both predictions.

// wireBits is one full-size segment on the wire: MSS 1448 plus the 40-byte
// header charge, in bits.
const wireBits = (1448 + 40) * 8

// meanFieldPath describes the scaled single-RED-hop testbed: a fixed
// bottleneck share per flow, 100 ms base RTT, thresholds and capacity
// proportional to N.
type meanFieldPath struct {
	n     int     // concurrent flows
	mbps  float64 // bottleneck share per flow, Mbps
	maxP  float64 // RED MaxP
	minTh float64 // packets
	maxTh float64 // packets
	r0    float64 // base RTT, seconds (propagation only)
}

func newMeanFieldPath(n int) meanFieldPath {
	return meanFieldPath{
		n:     n,
		mbps:  1,
		maxP:  0.1,
		minTh: float64(n) / 4,
		maxTh: float64(n) * 3 / 2,
		r0:    0.100,
	}
}

// capacityPps is the bottleneck rate in full-size packets per second.
func (m meanFieldPath) capacityPps() float64 {
	return m.mbps * float64(m.n) * 1e6 / wireBits
}

// dropAt is the RED steady-state drop profile at average queue q.
func (m meanFieldPath) dropAt(q float64) float64 {
	switch {
	case q <= m.minTh:
		return 0
	case q >= m.maxTh:
		return 1
	default:
		return m.maxP * (q - m.minTh) / (m.maxTh - m.minTh)
	}
}

// fixedPoint solves the mean-field equilibrium by bisection: N flows each
// at the TCP square-root law x(q) = (1/R(q))·sqrt(3/(2·b·p(q))) pkts/s
// (b = 2 for delayed ACKs), queueing delay R(q) = r0 + q/C, must jointly
// fill the capacity: N·x(q̄) = C. Demand decreases monotonically in q, so
// the root in (minth, maxth) is unique when it exists.
func (m meanFieldPath) fixedPoint() (qbar, pbar float64) {
	const b = 2.0
	c := m.capacityPps()
	demand := func(q float64) float64 {
		p := m.dropAt(q)
		if p <= 0 {
			return math.Inf(1)
		}
		r := m.r0 + q/c
		return float64(m.n) / r * math.Sqrt(3/(2*b*p))
	}
	lo, hi := m.minTh, m.maxTh
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if demand(mid) > c {
			lo = mid
		} else {
			hi = mid
		}
	}
	qbar = (lo + hi) / 2
	return qbar, m.dropAt(qbar)
}

// loopGain is the DC gain of the TCP/RED feedback loop linearized at the
// fixed point, κ = L·(R̄C)³/4N² (Hollot-style small-signal model; the
// quantity Reynier's stability condition bounds). Since R̄C = N·w̄, this is
// maxp·w̄³·N/(4·band): under mean-field scaling (band ∝ N) it is
// N-invariant, and it grows as the cube of the per-flow window.
func (m meanFieldPath) loopGain() float64 {
	qstar, _ := m.fixedPoint()
	c := m.capacityPps()
	r := m.r0 + qstar/c
	slope := m.maxP / (m.maxTh - m.minTh)
	return slope * math.Pow(r*c, 3) / (4 * float64(m.n) * float64(m.n))
}

// config builds the scenario: N persistent dynamic flows (1 GB transfers
// never complete inside the run) held at the admission cap, timers on the
// wheel, per-flow records off, and the hop queue gauge sampled at 25 ms
// for the oscillation analysis.
func (m meanFieldPath) config(dur time.Duration) Config {
	bps := m.mbps * float64(m.n) * 1e6
	return Config{
		Topology: &Topology{Hops: []Hop{
			// Fast feeder hop: 4× the bottleneck, no delay, never queues.
			// It exists because per-hop queue gauges are recorded only on
			// multi-hop topologies; the RED hop under study is hopq/1.
			{
				Rate:  unit.Bandwidth(4 * bps),
				Delay: 0,
				Queue: 4 * m.n,
			},
			{
				Rate:       unit.Bandwidth(bps),
				Delay:      time.Duration(m.r0 * float64(time.Second) / 2),
				Queue:      2 * m.n,
				Discipline: DiscRED,
				RED: &netem.REDConfig{
					Capacity:     2 * m.n,
					MinThreshold: m.minTh,
					MaxThreshold: m.maxTh,
					MaxP:         m.maxP,
					Weight:       0.002,
				},
			},
		}},
		Churn: &ChurnSpec{
			Arrivals: fmt.Sprintf("poisson:%d", 2*m.n),
			Size:     "fixed:1G",
			MaxLive:  m.n,
			Flow:     FlowSpec{Alg: AlgStandard},
		},
		TimerWheel:  true,
		RetainFlows: -1,
		Duration:    dur,
		Seed:        11,
	}
}

// meanFieldSample is the queue sampling period: a quarter of a scenario's
// samplePeriod, fine enough to resolve the RED limit cycle.
const meanFieldSample = 25 * time.Millisecond

// runMeanField is Scenario.Run at meanFieldSample: the same recorder
// call at a finer period, without the summary.
func runMeanField(s *Scenario) {
	s.Rec.Sample(meanFieldSample)
	s.Eng.RunUntil(sim.At(s.Cfg.Duration))
}

// queueSeries extracts the RED hop's sampled queue length after the warmup
// cut, as (seconds, packets) series.
func queueSeries(t *testing.T, sc *Scenario, warmup time.Duration) (xs, ys []float64) {
	t.Helper()
	if sc.Rec == nil {
		t.Fatal("mean-field run was traceless; no hop queue series")
	}
	s := sc.Rec.Series("hopq/1")
	if len(s.Points) == 0 {
		t.Fatal("hopq/1 series missing")
	}
	for _, p := range s.Points {
		if p.T.Duration() < warmup {
			continue
		}
		xs = append(xs, p.T.Seconds())
		ys = append(ys, p.V)
	}
	if len(xs) < 100 {
		t.Fatalf("only %d post-warmup queue samples", len(xs))
	}
	return xs, ys
}

func meanStd(ys []float64) (mean, std float64) {
	for _, y := range ys {
		mean += y
	}
	mean /= float64(len(ys))
	for _, y := range ys {
		std += (y - mean) * (y - mean)
	}
	return mean, math.Sqrt(std / float64(len(ys)))
}

// TestMeanFieldREDFixedPoint sweeps the population 1k→10k under mean-field
// scaling at the baseline operating point (1 Mbps/flow, MaxP 0.1, where
// κ ≈ 14 — the unstable side, so the mean-field limit is a limit cycle)
// and holds the engine to the scaling law: the per-flow queue share and
// the relative fluctuation must be N-invariant, and the mean queue must
// track the square-root-law fixed point within its oscillation envelope.
func TestMeanFieldREDFixedPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("mean-field RED sweep is a full-test study, not a -short test")
	}
	t.Parallel()
	const dur, warmup = 15 * time.Second, 5 * time.Second
	type row struct {
		n             int
		share, relStd float64
	}
	var rows []row
	for _, n := range []int{1000, 2500, 5000, 10000} {
		m := newMeanFieldPath(n)
		qstar, pstar := m.fixedPoint()
		s, err := Build(m.config(dur))
		if err != nil {
			t.Fatal(err)
		}
		runMeanField(s)
		_, ys := queueSeries(t, s, warmup)
		qbar, qstd := meanStd(ys)
		t.Logf("N=%d: q̄ sim %.0f pkts (%.3f/flow), fixed point %.0f pkts (p̄* %.4f, κ %.1f); σ/q̄ = %.3f; live %d",
			n, qbar, qbar/float64(n), qstar, pstar, m.loopGain(), qstd/qbar, s.LiveFlows())
		if s.LiveFlows() < n {
			t.Errorf("N=%d: only %d flows live", n, s.LiveFlows())
		}
		// In the limit-cycle regime the time-average sits below the fixed
		// point (the cycle dips under minth where drops cease), but must
		// stay within a factor of ~2.
		if qbar < 0.35*qstar || qbar > 1.2*qstar {
			t.Errorf("N=%d: simulated mean queue %.0f pkts vs mean-field fixed point %.0f (outside [0.35,1.2]×)",
				n, qbar, qstar)
		}
		rows = append(rows, row{n, qbar / float64(n), qstd / qbar})
	}
	// Mean-field scaling: per-flow queue share and relative fluctuation are
	// N-invariant across a 10× population sweep (measured spreads are ~5%
	// and ~8%; the gates leave room for seed-to-seed wobble).
	minShare, maxShare := rows[0].share, rows[0].share
	minRel, maxRel := rows[0].relStd, rows[0].relStd
	for _, r := range rows[1:] {
		minShare, maxShare = math.Min(minShare, r.share), math.Max(maxShare, r.share)
		minRel, maxRel = math.Min(minRel, r.relStd), math.Max(maxRel, r.relStd)
	}
	if maxShare/minShare > 1.25 {
		t.Errorf("per-flow queue share not N-invariant: spread ×%.2f (min %.3f, max %.3f pkts/flow)",
			maxShare/minShare, minShare, maxShare)
	}
	if maxRel/minRel > 1.4 {
		t.Errorf("relative fluctuation not N-invariant: σ/q̄ spread ×%.2f (min %.3f, max %.3f)",
			maxRel/minRel, minRel, maxRel)
	}
}

// TestMeanFieldREDOscillationOnset crosses the stability boundary at fixed
// N and fixed drop profile by scaling the per-flow capacity share: the
// loop gain grows as the cube of the per-flow window (κ ≈ maxp·w̄³·N/4·band),
// so small shares sit on Reynier's stable side (fluctuations noise-like)
// and large shares in the unstable region, where the queue develops a
// coherent limit cycle. The sweep stops at 2 Mbps/flow: far past the
// boundary (κ ≳ 100) the cycle saturates against the empty queue and
// stops being coherent, which is past-saturation behaviour, not onset.
func TestMeanFieldREDOscillationOnset(t *testing.T) {
	if testing.Short() {
		t.Skip("mean-field RED oscillation study is a full-test study, not a -short test")
	}
	t.Parallel()
	const n = 1000
	const dur, warmup = 15 * time.Second, 5 * time.Second
	type row struct {
		mbps   float64
		kappa  float64
		osc    stats.Oscillation
		relAmp float64
	}
	var rows []row
	for _, mbps := range []float64{0.5, 1, 2} {
		m := newMeanFieldPath(n)
		m.mbps = mbps
		m.maxP = 0.05
		s, err := Build(m.config(dur))
		if err != nil {
			t.Fatal(err)
		}
		runMeanField(s)
		xs, ys := queueSeries(t, s, warmup)
		qbar, qstd := meanStd(ys)
		osc := stats.AnalyzeOscillation(xs, ys, qstd, 0.5)
		rows = append(rows, row{mbps, m.loopGain(), osc, qstd / qbar})
		t.Logf("%.1f Mbps/flow (κ %.1f): q̄ %.0f σ/q̄ %.3f osc %+v",
			mbps, m.loopGain(), qbar, qstd/qbar, osc)
	}
	// The stable side must be quiet noise, not a coherent cycle; the
	// unstable side must sustain one; and fluctuation must grow with the
	// loop gain by a material margin (measured: 0.091 → 1.067 → 1.556).
	if rows[0].osc.Sustained || rows[0].relAmp > 0.3 {
		t.Errorf("stable side (κ %.1f) not quiet: σ/q̄ %.3f sustained=%v",
			rows[0].kappa, rows[0].relAmp, rows[0].osc.Sustained)
	}
	for _, r := range rows[1:] {
		if !r.osc.Sustained {
			t.Errorf("unstable side (κ %.1f) has no sustained limit cycle: osc %+v",
				r.kappa, r.osc)
		}
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].relAmp < rows[i-1].relAmp {
			t.Errorf("σ/q̄ not monotone in loop gain: %.3f at κ %.1f vs %.3f at κ %.1f",
				rows[i].relAmp, rows[i].kappa, rows[i-1].relAmp, rows[i-1].kappa)
		}
	}
	if rows[len(rows)-1].relAmp < 5*rows[0].relAmp {
		t.Errorf("no oscillation onset: σ/q̄ %.3f at κ %.1f vs %.3f at κ %.1f (< 5×)",
			rows[len(rows)-1].relAmp, rows[len(rows)-1].kappa,
			rows[0].relAmp, rows[0].kappa)
	}
}
