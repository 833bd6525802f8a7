package experiment

import (
	"math"
	"strings"
	"testing"
	"time"

	"rsstcp/internal/netem"
	"rsstcp/internal/pid"
	"rsstcp/internal/unit"
)

// TestValidateRejectsOutOfDomain: each value here used to build without
// error and run the paper default in its place (a negative path dimension,
// size, MSS, tick or duration, a set point outside [0, 1], the churn
// template's MSS or tick), no override and no cap at all (a negative Load or
// MaxLive, a RetainFlows below -1), or, a negative start time, panic in the
// calendar ("schedule in the past"). A negative Route.Hops ran the whole
// path, as 0 does. The churn template's Bytes and StartAt were dropped
// silently: every arrival overwrites them. Each is now one line naming the field,
// from Validate, Build and Reset alike, and the scenario a refused Reset
// leaves still runs. The rows after the overflowing delays passed Validate
// and were refused by Build alone, so a campaign cell with one of them
// started and failed in a worker: explicit RED thresholds the hop arena
// panicked on (and a RED weight of 7, which ran the hop at utilization 0), a
// route past the end of the path, two flows on one host
// entering at different hops (a churn template's panicked at its first
// arrival), gains the controller refuses (a standard flow ran with them
// ignored), and a Load whose rescaled arrival rate is NaN or finer than the
// calendar, or scales an MMPP's slow phase to 0 (Build panicked on that one).
func TestValidateRejectsOutOfDomain(t *testing.T) {
	t.Parallel()
	std := FlowSpec{Alg: AlgStandard}
	longHop := Hop{Rate: unit.Mbps, Delay: 2_000_000 * time.Hour, Queue: 5}
	churn := func(edit func(*ChurnSpec)) Config {
		ch := ChurnSpec{Arrivals: "poisson:40", Size: "exp:50k", Flow: FlowSpec{Alg: AlgStandard}}
		edit(&ch)
		return Config{Churn: &ch}
	}
	flow := func(sp float64) Config {
		return Config{Flows: []FlowSpec{{Alg: AlgRestricted, SetpointFraction: sp}}}
	}
	gains := func(alg Algorithm, g pid.Gains) Config { return Config{Flows: []FlowSpec{{Alg: alg, Gains: g}}} }
	threeHops := &Topology{Hops: []Hop{{Rate: unit.Mbps, Queue: 5}, {Rate: unit.Mbps, Queue: 5}, {Rate: unit.Mbps, Queue: 5}}}
	for _, row := range []struct {
		cfg  Config
		want string
	}{
		{Config{Path: PathConfig{Bottleneck: -5 * unit.Mbps}}, "experiment: Path.Bottleneck -5000000bps is negative"},
		{Config{Path: PathConfig{RTT: -time.Millisecond}}, "experiment: Path.RTT -1ms is negative"},
		{Config{Path: PathConfig{RouterQueue: -5}}, "experiment: Path.RouterQueue -5 is negative"},
		{Config{Path: PathConfig{TxQueueLen: -5}}, "experiment: Path.TxQueueLen -5 is negative"},
		{Config{Path: PathConfig{NICRate: -5}}, "experiment: Path.NICRate -5bps is negative"},
		{Config{Path: PathConfig{Hops: -3}}, "experiment: Path.Hops -3 is negative"},
		{flow(2), "experiment: Flows[0].SetpointFraction 2 is outside [0, 1]"},
		{flow(-1), "experiment: Flows[0].SetpointFraction -1 is outside [0, 1]"},
		{flow(math.NaN()), "experiment: Flows[0].SetpointFraction NaN is outside [0, 1]"},
		{churn(func(c *ChurnSpec) { c.Flow.MSS = -1 }), "experiment: Churn.Flow.MSS -1 is negative"},
		{churn(func(c *ChurnSpec) { c.Flow.Tick = -1 }), "experiment: Churn.Flow.Tick -1ns is negative"},
		{churn(func(c *ChurnSpec) { c.Load = -0.5 }), "experiment: Churn.Load -0.5 is not a finite number ≥ 0"},
		{churn(func(c *ChurnSpec) { c.MaxLive = -4 }), "experiment: Churn.MaxLive -4 is negative"},
		{churn(func(c *ChurnSpec) { c.Flow.Bytes = 1000 }),
			"experiment: Churn.Flow.Bytes 1000 is not 0: each arrival draws its size from Churn.Size"},
		{churn(func(c *ChurnSpec) { c.Flow.StartAt = time.Second }),
			"experiment: Churn.Flow.StartAt 1s is not 0: each arrival starts when it arrives"},
		{Config{RetainFlows: -7}, "experiment: RetainFlows -7 is below -1"},
		{Config{Flows: []FlowSpec{std, {Alg: AlgStandard, StartAt: -time.Second}}},
			"experiment: Flows[1].StartAt -1s is negative"},
		{Config{Flows: []FlowSpec{{Alg: AlgRestricted, Bytes: -5}}}, "experiment: Flows[0].Bytes -5 is negative"},
		{Config{Flows: []FlowSpec{{Alg: AlgStandard, MSS: -1}}}, "experiment: Flows[0].MSS -1 is negative"},
		{Config{Flows: []FlowSpec{{Alg: AlgRestricted, Tick: -time.Millisecond}}}, "experiment: Flows[0].Tick -1ms is negative"},
		{Config{Duration: -time.Second}, "experiment: Duration -1s is negative"},
		{Config{Flows: []FlowSpec{{Alg: AlgStandard, Route: Route{Hops: -2}}}}, "experiment: Flows[0].Route.Hops -2 is negative"},
		{Config{Flows: []FlowSpec{{Alg: AlgStandard, Route: Route{FirstHop: -1}}}},
			"experiment: Flows[0].Route.FirstHop -1 is negative"},
		{churn(func(c *ChurnSpec) { c.Flow.Route.Hops = -2 }), "experiment: Churn.Flow.Route.Hops -2 is negative"},
		{churn(func(c *ChurnSpec) { c.Flow.Route.FirstHop = -1 }), "experiment: Churn.Flow.Route.FirstHop -1 is negative"},
		// Delays whose sums wrap past a duration's range: the path line, the
		// reverse link's delay and churn's base RTT used to read them negative.
		{Config{Path: PathConfig{RTT: 2_000_000 * time.Hour, ReverseDelay: 2_000_000 * time.Hour}},
			"experiment: Path.ReverseDelay: round trip 1000000h0m0s + 2000000h0m0s overflows a duration"},
		{Config{Topology: &Topology{Hops: []Hop{longHop, longHop}}},
			"experiment: hop 1: Delay summed through it overflows a duration"},
		{Config{Topology: &Topology{Hops: []Hop{longHop}, Reverse: Reverse{Delay: 1_000_000 * time.Hour}}},
			"experiment: Reverse.Delay: round trip 2000000h0m0s + 1000000h0m0s overflows a duration"},
		{Config{Topology: &Topology{Hops: []Hop{{Rate: unit.Mbps, Queue: 5, Discipline: DiscRED,
			RED: &netem.REDConfig{Capacity: 5, MinThreshold: 3, MaxThreshold: 3}}}}},
			"experiment: hop 0: RED MaxThreshold 3 does not exceed MinThreshold 3"},
		{Config{Topology: &Topology{Hops: []Hop{{Rate: unit.Mbps, Queue: 5, Discipline: DiscRED, RED: &netem.REDConfig{}}}}},
			"experiment: hop 0: non-positive RED capacity 0"},
		{Config{Topology: &Topology{Hops: []Hop{{Rate: unit.Mbps, Queue: 5, Discipline: DiscRED,
			RED: &netem.REDConfig{Capacity: 5, MinThreshold: 1, MaxThreshold: 3, MaxP: 0.1, Weight: 7}}}}},
			"experiment: hop 0: RED Weight 7 is outside [0, 1]"},
		{Config{Flows: []FlowSpec{std, {Alg: AlgStandard, Route: Route{FirstHop: 1}}}},
			"experiment: Flows[1].Route {FirstHop:1 Hops:0} is outside the 1-hop path"},
		{Config{Path: PathConfig{Hops: 3}, Flows: []FlowSpec{{Alg: AlgStandard, Route: Route{FirstHop: 1, Hops: 3}}}},
			"experiment: Flows[0].Route {FirstHop:1 Hops:3} is outside the 3-hop path"},
		{churn(func(c *ChurnSpec) { c.Flow.Route.FirstHop = 2 }),
			"experiment: Churn.Flow.Route {FirstHop:2 Hops:0} is outside the 1-hop path"},
		{Config{Topology: threeHops, Flows: []FlowSpec{{Alg: AlgStandard, Host: 7}, {Alg: AlgStandard, Host: 7, Route: Route{FirstHop: 1}}}},
			"experiment: Flows[1].Host 7: its flows enter at hop 0, this one at hop 1"},
		{Config{Topology: threeHops, Flows: []FlowSpec{{Alg: AlgStandard, Host: 7, Route: Route{FirstHop: 2}}},
			Churn: &ChurnSpec{Flow: FlowSpec{Host: 7}}},
			"experiment: Churn.Flow.Host 7: its flows enter at hop 2, this one at hop 0"},
		{gains(AlgRestricted, pid.Gains{Kp: -1}), "experiment: Flows[0].Gains.Kp -1 is negative or NaN"},
		{gains(AlgStandard, pid.Gains{Kp: math.NaN()}), "experiment: Flows[0].Gains.Kp NaN is negative or NaN"},
		{gains(AlgRestricted, pid.Gains{Kp: 1, Ti: -time.Second}), "experiment: Flows[0].Gains.Ti -1s is negative"},
		{gains(AlgHyStart, pid.Gains{Kp: 1, Td: -time.Second}), "experiment: Flows[0].Gains.Td -1s is negative"},
		{churn(func(c *ChurnSpec) { c.Flow.Gains.Kp = -2 }), "experiment: Churn.Flow.Gains.Kp -2 is negative or NaN"},
		{churn(func(c *ChurnSpec) { c.Load, c.Size = 0.5, "pareto:1e300:1k:10M" }),
			`experiment: Churn.Load 0.5 over Churn.Size "pareto:1e300:1k:10M" gives an unusable arrival rate: ` +
				"rate NaN/s outside (0, 1e9]: arrivals are scheduled at 1 ns resolution"},
		{churn(func(c *ChurnSpec) { c.Load, c.Size = 100, "fixed:1" }),
			`experiment: Churn.Load 100 over Churn.Size "fixed:1" gives an unusable arrival rate: ` +
				"rate 1.25e+09/s outside (0, 1e9]: arrivals are scheduled at 1 ns resolution"},
		{churn(func(c *ChurnSpec) { c.Load, c.Arrivals = 0.5, "mmpp:1e-322:1e9:1s" }),
			`experiment: Churn.Load 0.5 over Churn.Size "exp:50k" gives an unusable arrival rate: ` +
				"rate 0/s outside (0, 1e9]: arrivals are scheduled at 1 ns resolution"},
	} {
		row.cfg.Traceless = true
		if err := row.cfg.Validate(); err == nil || err.Error() != row.want {
			t.Errorf("Validate = %v, want %q", err, row.want)
		}
		if _, err := Build(row.cfg); err == nil || err.Error() != row.want {
			t.Errorf("Build = %v, want %q", err, row.want)
		}
		s, err := Build(Config{Duration: 100 * time.Millisecond, Traceless: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Reset(row.cfg); err == nil || err.Error() != row.want {
			t.Errorf("Reset = %v, want %q", err, row.want)
		}
		if res := s.Run(); res.Duration != 100*time.Millisecond {
			t.Errorf("%s: the scenario a refused Reset left ran for %v, want 100ms", row.want, res.Duration)
		}
	}
}

// TestAttachFlowChecksSpec: a hand-attached spec is held to what Validate
// holds a configured flow to. AttachFlow used to take any spec: an MSS of -1
// ran 1448-byte segments and a set point of 7 ran 0.9. The route and host
// are checked against the built scenario. A refused spec leaves no flow
// behind, and a valid one still attaches.
func TestAttachFlowChecksSpec(t *testing.T) {
	t.Parallel()
	s := warmTurnoverScenario(t, PathConfig{Hops: 2})
	mustAttach(t, s, FlowSpec{Alg: AlgStandard, Host: 3, Route: Route{FirstHop: 1}})
	for _, row := range []struct {
		spec FlowSpec
		want string
	}{
		{FlowSpec{Alg: AlgStandard, MSS: -1, Bytes: 100_000}, "experiment: AttachFlow: FlowSpec.MSS -1 is negative"},
		{FlowSpec{Alg: AlgRestricted, SetpointFraction: 7}, "experiment: AttachFlow: FlowSpec.SetpointFraction 7 is outside [0, 1]"},
		{FlowSpec{Alg: AlgStandard, Route: Route{Hops: -2}}, "experiment: AttachFlow: FlowSpec.Route.Hops -2 is negative"},
		{FlowSpec{Alg: AlgStandard, Bytes: -1}, "experiment: AttachFlow: FlowSpec.Bytes -1 is negative"},
		{FlowSpec{Alg: "bogus"}, `experiment: AttachFlow: FlowSpec.Alg: unknown algorithm "bogus"`},
		{FlowSpec{Alg: AlgStandard, Gains: pid.Gains{Kp: math.NaN()}}, "experiment: AttachFlow: FlowSpec.Gains.Kp NaN is negative or NaN"},
		{FlowSpec{Alg: AlgStandard, Route: Route{FirstHop: 2}}, "experiment: AttachFlow: FlowSpec.Route {FirstHop:2 Hops:0} is outside the 2-hop path"},
		{FlowSpec{Alg: AlgStandard, Host: 3}, "experiment: AttachFlow: FlowSpec.Host 3: its flows enter at hop 1, this one at hop 0"},
	} {
		if f, err := s.AttachFlow(row.spec); err == nil || err.Error() != row.want {
			t.Errorf("AttachFlow(%+v) = %v, %v, want %q", row.spec, f, err, row.want)
		}
	}
	if n := s.LiveFlows(); n != 1 {
		t.Fatalf("%d flows live after refused attaches, want 1", n)
	}
	f := mustAttach(t, s, FlowSpec{Alg: AlgRestricted, MSS: 1000, SetpointFraction: 0.5})
	if f.Sender.MSS() != 1000 || f.Spec.SetpointFraction != 0.5 {
		t.Errorf("attached flow runs MSS %d, set point %v, want 1000 and 0.5", f.Sender.MSS(), f.Spec.SetpointFraction)
	}
}

// TestValidateAllocatesNothing: Build and every Reset call Validate, so it
// must cost a campaign replicate no allocation, whatever the config sets
// (but a Churn spec, whose parsed specs the run keeps).
func TestValidateAllocatesNothing(t *testing.T) {
	red := DiscRED
	cfg := Config{
		Path: PathConfig{Bottleneck: unit.Gbps, RTT: time.Millisecond, RouterQueue: 9, NICRate: unit.Gbps,
			TxQueueLen: 9, Loss: 0.5, Hops: 3, AQM: red, ReverseRate: unit.Mbps, ReverseDelay: 1, ReverseQueue: 9},
		Topology: &Topology{Hops: []Hop{{Rate: unit.Mbps, Delay: 1, Queue: 9, Discipline: red, Loss: 0.1}}},
		Flows:    []FlowSpec{{Alg: AlgRestricted, StartAt: 1, Bytes: 9, SetpointFraction: 1, Tick: 1, MSS: 9}},
		Duration: time.Second, EventLog: 9, RetainFlows: -1,
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Validate allocates %.1f objects, want 0", allocs)
	}
}

// TestTuneValidatesPath: an out-of-domain path is Tune's error before the
// first probe. It used to tune the paper path in its place and fail on an
// unrelated search error, or, once Build refused it, panic in the probe.
func TestTuneValidatesPath(t *testing.T) {
	t.Parallel()
	_, _, err := Tune(PathConfig{Bottleneck: -5}, 100*time.Millisecond, pid.RulePaper)
	if want := "experiment: Path.Bottleneck -5bps is negative"; err == nil || err.Error() != want {
		t.Errorf("Tune = %v, want %q", err, want)
	}
}

// FuzzConfigDomain: a config with any values at all, negative, NaN, ±Inf
// and huge ones included, either fails Validate with one line and Build with
// the same line, or builds a scenario whose resolved config reads back every
// nonzero field as it was asked for, and whose flow's route spans the hops it
// asked for: no value outside the domain runs a default in its place, and
// Build refuses nothing Validate accepts. host puts a second flow (a static
// one beside a churn template) on the first flow's host, entering at hop
// first2.
func FuzzConfigDomain(f *testing.F) {
	f.Fuzz(func(t *testing.T, bw, rtt, rq, nic, ifq, hops int64, loss, sp, load float64,
		mss, tick, start, bytes, maxLive, retain, eventLog, dur int64, alg string, churn bool, first, span int64,
		kp float64, ti, td, host, first2 int64, size string) {
		spec := FlowSpec{Alg: Algorithm(alg), StartAt: time.Duration(start), Bytes: bytes,
			Gains:            pid.Gains{Kp: kp, Ti: time.Duration(ti), Td: time.Duration(td)},
			SetpointFraction: sp, Tick: time.Duration(tick), MSS: int(mss), Host: int(host),
			Route: Route{FirstHop: int(first), Hops: int(span)}}
		cfg := Config{
			Path: PathConfig{Bottleneck: unit.Bandwidth(bw), RTT: time.Duration(rtt), RouterQueue: int(rq),
				NICRate: unit.Bandwidth(nic), TxQueueLen: int(ifq), Loss: loss, Hops: int(hops)},
			Duration: time.Duration(dur), RetainFlows: int(retain), EventLog: int(eventLog), Traceless: true,
		}
		if churn {
			cfg.Churn = &ChurnSpec{Load: load, Size: size, MaxLive: int(maxLive), Flow: spec}
		} else {
			cfg.Flows = []FlowSpec{spec}
		}
		if host != 0 {
			cfg.Flows = append(cfg.Flows, FlowSpec{Alg: AlgStandard, Host: int(host), Route: Route{FirstHop: int(first2)}})
		}
		verr := cfg.Validate()
		s, err := Build(cfg)
		if (err == nil) != (verr == nil) || err != nil && err.Error() != verr.Error() {
			t.Fatalf("Validate = %v, but Build = %v", verr, err)
		}
		if err != nil {
			if msg := err.Error(); strings.Contains(msg, "\n") || !strings.HasPrefix(msg, "experiment: ") {
				t.Fatalf("error is not one experiment line: %q", msg)
			}
			return
		}
		got := s.Cfg
		kept := func(name string, asked, ran any, zero bool) {
			if !zero && asked != ran {
				t.Fatalf("%s: asked for %v, ran %v", name, asked, ran)
			}
		}
		p, q := cfg.Path, got.Path
		kept("Path.Bottleneck", p.Bottleneck, q.Bottleneck, p.Bottleneck == 0)
		kept("Path.RTT", p.RTT, q.RTT, p.RTT == 0)
		kept("Path.RouterQueue", p.RouterQueue, q.RouterQueue, p.RouterQueue == 0)
		kept("Path.NICRate", p.NICRate, q.NICRate, p.NICRate == 0)
		kept("Path.TxQueueLen", p.TxQueueLen, q.TxQueueLen, p.TxQueueLen == 0)
		kept("Path.Loss", p.Loss, q.Loss, p.Loss == 0)
		kept("Path.Hops", p.Hops, q.Hops, p.Hops == 0)
		kept("Duration", cfg.Duration, got.Duration, cfg.Duration == 0)
		kept("RetainFlows", cfg.RetainFlows, got.RetainFlows, cfg.RetainFlows == 0)
		kept("EventLog", cfg.EventLog, got.EventLog, cfg.EventLog == 0)
		var ran FlowSpec
		if churn {
			kept("Churn.Load", load, got.Churn.Load, load == 0)
			kept("Churn.Size", size, got.Churn.Size, size == "")
			kept("Churn.MaxLive", int(maxLive), got.Churn.MaxLive, maxLive == 0)
			ran = got.Churn.Flow
		} else {
			ran = got.Flows[0]
		}
		kept("Alg", spec.Alg, ran.Alg, spec.Alg == "")
		kept("StartAt", spec.StartAt, ran.StartAt, spec.StartAt == 0)
		kept("Bytes", spec.Bytes, ran.Bytes, spec.Bytes == 0)
		kept("Gains", spec.Gains, ran.Gains, spec.Gains == pid.Gains{})
		kept("SetpointFraction", spec.SetpointFraction, ran.SetpointFraction, spec.SetpointFraction == 0)
		kept("Tick", spec.Tick, ran.Tick, spec.Tick == 0)
		kept("MSS", spec.MSS, ran.MSS, spec.MSS == 0)
		kept("Host", spec.Host, ran.Host, spec.Host == 0)
		// Route runs as asked: from FirstHop, and a nonzero Hops that many.
		r := spec.Route
		if first, last, ok := ran.Route.span(len(s.Topo.Hops)); !ok || first != r.FirstHop ||
			(r.Hops != 0 && last-first+1 != r.Hops) {
			t.Fatalf("Route %+v: ran hops [%d, %d] of %d", r, first, last, len(s.Topo.Hops))
		}
	})
}
