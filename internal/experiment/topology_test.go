package experiment

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"rsstcp/internal/telemetry"
	"rsstcp/internal/unit"
)

// TestPathCompilesToOneHop pins the compiler invariant's shape: a zero-knob
// PathConfig compiles to exactly one drop-tail hop carrying the whole
// one-way delay, loss on that hop, and an ideal (zero-rate) reverse.
func TestPathCompilesToOneHop(t *testing.T) {
	t.Parallel()
	p := PaperPath()
	p.Loss = 0.01
	topo := p.Topology()
	if len(topo.Hops) != 1 {
		t.Fatalf("hops = %d, want 1", len(topo.Hops))
	}
	h := topo.Hops[0]
	if h.Rate != p.Bottleneck || h.Delay != p.RTT/2 || h.Queue != p.RouterQueue {
		t.Errorf("hop = %+v, want bottleneck/owd/router-queue of %+v", h, p)
	}
	if h.Discipline != DiscDropTail {
		t.Errorf("discipline = %q, want droptail", h.Discipline)
	}
	if h.Loss != 0.01 {
		t.Errorf("loss = %g, want 0.01", h.Loss)
	}
	if topo.Reverse.Rate != 0 {
		t.Errorf("reverse rate = %v, want 0 (ideal wire)", topo.Reverse.Rate)
	}
}

// TestPathSplitsIntoHops: Path.Hops divides the one-way delay exactly and
// injects loss on the first hop only, so end-to-end drop probability matches
// the dumbbell.
func TestPathSplitsIntoHops(t *testing.T) {
	t.Parallel()
	p := PaperPath()
	p.Hops = 3
	p.Loss = 0.02
	p.AQM = DiscRED
	topo := p.Topology()
	if len(topo.Hops) != 3 {
		t.Fatalf("hops = %d, want 3", len(topo.Hops))
	}
	var total time.Duration
	for i, h := range topo.Hops {
		total += h.Delay
		if h.Rate != p.Bottleneck || h.Queue != p.RouterQueue {
			t.Errorf("hop %d: rate/queue diverged: %+v", i, h)
		}
		if h.Discipline != DiscRED {
			t.Errorf("hop %d: discipline = %q, want red", i, h.Discipline)
		}
		wantLoss := 0.0
		if i == 0 {
			wantLoss = 0.02
		}
		if h.Loss != wantLoss {
			t.Errorf("hop %d: loss = %g, want %g", i, h.Loss, wantLoss)
		}
	}
	if total != p.RTT/2 {
		t.Errorf("hop delays sum to %v, want %v", total, p.RTT/2)
	}
}

// TestPathCompileMatchesExplicitTopology is the compiler invariant at the
// result level: running a PathConfig and running its compiled Topology
// explicitly must produce identical results — the PathConfig front-end adds
// nothing the topology cannot express.
func TestPathCompileMatchesExplicitTopology(t *testing.T) {
	t.Parallel()
	p := PathConfig{Loss: 0.004}
	flows := []FlowSpec{{Alg: AlgRestricted}, {Alg: AlgStandard, SACK: true}}

	viaPath, err := Build(Config{Path: p, Flows: flows, Duration: 2 * time.Second, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	resPath := viaPath.Run()

	topo := p.Topology()
	viaTopo, err := Build(Config{Path: p, Topology: &topo, Flows: flows, Duration: 2 * time.Second, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	resTopo := viaTopo.Run()

	sameResult(t, "path-vs-explicit-topology", resPath, resTopo)
	sameHops(t, "path-vs-explicit-topology", resPath, resTopo)
}

// sameHops compares the per-hop aggregates and reverse counters of two
// results.
func sameHops(t *testing.T, label string, a, b Result) {
	t.Helper()
	if len(a.Hops) != len(b.Hops) {
		t.Fatalf("%s: hop count %d vs %d", label, len(a.Hops), len(b.Hops))
	}
	for i := range a.Hops {
		if a.Hops[i] != b.Hops[i] {
			t.Errorf("%s: hop %d stats diverged: %+v vs %+v", label, i, a.Hops[i], b.Hops[i])
		}
	}
	if a.ReverseDrops != b.ReverseDrops {
		t.Errorf("%s: reverse drops %d vs %d", label, a.ReverseDrops, b.ReverseDrops)
	}
}

// parkingLot returns the 3-hop multi-bottleneck scenario the satellite tests
// share: a measured flow over the whole path and a backlogged standard cross
// flow pinned to the middle hop, with an asymmetric congested reverse
// channel.
func parkingLot(alg Algorithm) Config {
	hop := Hop{Rate: 100 * unit.Mbps, Delay: 10 * time.Millisecond, Queue: 250}
	topo := Topology{
		Hops:    []Hop{hop, hop, hop},
		Reverse: Reverse{Rate: 2 * unit.Mbps, Queue: 50},
	}
	return Config{
		Topology: &topo,
		Flows: []FlowSpec{
			{Alg: alg},
			{Alg: AlgStandard, Cross: true, Route: Route{FirstHop: 1, Hops: 1}, StartAt: time.Second},
		},
		Duration: 3 * time.Second,
		Seed:     5,
	}
}

// TestParkingLotCrossTraffic: the middle hop carries both flows and is the
// only contended stage — its counters must show the load while the outer
// hops stay clean, and the hop-local cross flow must still move data.
func TestParkingLotCrossTraffic(t *testing.T) {
	t.Parallel()
	cfg := parkingLot(AlgRestricted)
	s, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if len(res.Hops) != 3 {
		t.Fatalf("hops = %d, want 3", len(res.Hops))
	}
	if res.Hops[1].Utilization <= res.Hops[0].Utilization ||
		res.Hops[1].Utilization <= res.Hops[2].Utilization {
		t.Errorf("middle hop utilization %.3f not above outer hops (%.3f, %.3f)",
			res.Hops[1].Utilization, res.Hops[0].Utilization, res.Hops[2].Utilization)
	}
	if res.Hops[1].MaxQueue <= res.Hops[0].MaxQueue {
		t.Errorf("middle hop max queue %d not above hop 0's %d",
			res.Hops[1].MaxQueue, res.Hops[0].MaxQueue)
	}
	cross := s.ResultFor(1)
	if cross.Stats.ThruOctetsAcked == 0 {
		t.Error("middle-hop cross flow moved no data")
	}
	if res.Stats.ThruOctetsAcked == 0 {
		t.Error("measured flow moved no data")
	}
	var sum int64
	for _, h := range res.Hops {
		sum += h.Drops
	}
	if res.RouterDrops != sum {
		t.Errorf("RouterDrops %d != per-hop sum %d", res.RouterDrops, sum)
	}
}

// TestREDHopDrops: a RED middle hop under the same contention discards
// early — drops land on the AQM hop and the run completes.
func TestREDHopDrops(t *testing.T) {
	t.Parallel()
	cfg := parkingLot(AlgStandard)
	topo := cfg.Topology.Clone()
	topo.Hops[1].Discipline = DiscRED
	cfg.Topology = &topo
	s, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.Hops[1].Drops == 0 {
		t.Error("contended RED hop recorded no drops")
	}
	if res.Hops[0].Drops != 0 || res.Hops[2].Drops != 0 {
		t.Errorf("uncontended hops dropped: %d, %d", res.Hops[0].Drops, res.Hops[2].Drops)
	}
	if res.Stats.ThruOctetsAcked == 0 {
		t.Error("measured flow moved no data through the RED hop")
	}
}

// TestInjectorDeterminism is the seed-derivation contract: two same-seed
// runs of a topology with per-hop reordering and duplication must produce
// identical results down to every hop counter.
func TestInjectorDeterminism(t *testing.T) {
	t.Parallel()
	hop := Hop{Rate: 50 * unit.Mbps, Delay: 5 * time.Millisecond, Queue: 120}
	mid := hop
	mid.ReorderP = 0.05
	mid.ReorderDelay = 2 * time.Millisecond
	mid.DuplicateP = 0.02
	mid.Loss = 0.002
	topo := Topology{Hops: []Hop{hop, mid, hop}}
	cfg := Config{
		Topology: &topo,
		Flows:    []FlowSpec{{Alg: AlgRestricted, SACK: true}},
		Duration: 3 * time.Second,
		Seed:     17,
	}
	run := func() Result {
		s, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s.Run()
	}
	a, b := run(), run()
	sameResult(t, "same-seed", a, b)
	sameHops(t, "same-seed", a, b)
	if a.Hops[1].Reordered == 0 {
		t.Error("reorder injector never fired — test exercises nothing")
	}
	if a.Hops[1].Duplicated == 0 {
		t.Error("duplicate injector never fired — test exercises nothing")
	}

	// A different seed must draw a different injector pattern: same-seed
	// equality above would also pass if the RNGs were ignoring the seed.
	cfg.Seed = 18
	c := run()
	if c.Hops[1].Reordered == a.Hops[1].Reordered &&
		c.Hops[1].Duplicated == a.Hops[1].Duplicated &&
		c.Stats.SegsOut == a.Stats.SegsOut {
		t.Error("different seed reproduced the seed-17 injector pattern exactly")
	}
}

// TestCongestedReverseDegradesRamp is the reverse-path regression: ACKs
// through a saturated reverse queue stall the ACK clock, so the bottleneck
// must take measurably longer to reach 90% utilization than with the ideal
// reverse wire — and the reverse queue must actually shed ACKs.
func TestCongestedReverseDegradesRamp(t *testing.T) {
	t.Parallel()
	base := Config{
		Path:     PaperPath(),
		Flows:    []FlowSpec{{Alg: AlgRestricted}},
		Duration: 10 * time.Second,
		Seed:     1,
	}
	ideal, err := Build(base)
	if err != nil {
		t.Fatal(err)
	}
	resIdeal := ideal.Run()
	if resIdeal.TimeToUtil90 < 0 {
		t.Fatal("ideal reverse never reached 90% utilization — bad test premise")
	}
	if resIdeal.ReverseDrops != 0 {
		t.Fatalf("ideal reverse wire dropped %d ACKs", resIdeal.ReverseDrops)
	}

	slow := base
	slow.Path.ReverseRate = 1 * unit.Mbps
	slow.Path.ReverseQueue = 50
	congested, err := Build(slow)
	if err != nil {
		t.Fatal(err)
	}
	resSlow := congested.Run()
	if resSlow.ReverseDrops == 0 {
		t.Error("1 Mbps reverse channel dropped no ACKs")
	}
	if resSlow.TimeToUtil90 >= 0 && resSlow.TimeToUtil90 <= resIdeal.TimeToUtil90 {
		t.Errorf("congested reverse ramp %v not slower than ideal %v",
			resSlow.TimeToUtil90, resIdeal.TimeToUtil90)
	}
	if resSlow.Throughput >= resIdeal.Throughput {
		t.Errorf("congested reverse throughput %v not below ideal %v",
			resSlow.Throughput, resIdeal.Throughput)
	}
}

// TestRouteValidation: routes outside the hop graph are rejected at build.
func TestRouteValidation(t *testing.T) {
	t.Parallel()
	hop := Hop{Rate: 10 * unit.Mbps, Delay: time.Millisecond, Queue: 50}
	topo := Topology{Hops: []Hop{hop, hop}}
	for _, r := range []Route{
		{FirstHop: 2},
		{FirstHop: -1},
		{FirstHop: 1, Hops: 2},
	} {
		cfg := Config{Topology: &topo, Flows: []FlowSpec{{Alg: AlgStandard, Route: r}}}
		if _, err := Build(cfg); err == nil {
			t.Errorf("route %+v accepted on a 2-hop path", r)
		}
	}
}

// TestTopologyValidation: malformed hop graphs are rejected before anything
// is wired.
func TestTopologyValidation(t *testing.T) {
	t.Parallel()
	good := Hop{Rate: 10 * unit.Mbps, Delay: time.Millisecond, Queue: 50}
	long := Hop{Rate: 10 * unit.Mbps, Delay: 1_000_000 * time.Hour, Queue: 50}
	for name, topo := range map[string]Topology{
		"no hops":        {},
		"zero rate":      {Hops: []Hop{{Delay: time.Millisecond, Queue: 50}}},
		"zero queue":     {Hops: []Hop{{Rate: 10 * unit.Mbps, Delay: time.Millisecond}}},
		"bad discipline": {Hops: []Hop{{Rate: 10 * unit.Mbps, Delay: time.Millisecond, Queue: 50, Discipline: "codel"}}},
		"bad loss":       {Hops: []Hop{{Rate: 10 * unit.Mbps, Delay: time.Millisecond, Queue: 50, Loss: 1.5}}},
		"nan loss":       {Hops: []Hop{{Rate: 10 * unit.Mbps, Delay: time.Millisecond, Queue: 50, Loss: math.NaN()}}},
		"nan reorder":    {Hops: []Hop{{Rate: 10 * unit.Mbps, Delay: time.Millisecond, Queue: 50, ReorderP: math.NaN()}}},
		"nan dup":        {Hops: []Hop{{Rate: 10 * unit.Mbps, Delay: time.Millisecond, Queue: 50, DuplicateP: math.NaN()}}},
		"neg reverse":    {Hops: []Hop{good}, Reverse: Reverse{Rate: -1}},
		"too many hops":  {Hops: make([]Hop, MaxHops+1)},
		// Both used to be resolved to their defaults before Validate saw them.
		"neg reorder delay": {Hops: []Hop{{Rate: 10 * unit.Mbps, Delay: time.Millisecond, Queue: 50, ReorderP: 0.1, ReorderDelay: -time.Millisecond}}},
		"neg reverse queue": {Hops: []Hop{good}, Reverse: Reverse{Rate: 10 * unit.Mbps, Queue: -5}},
		// Delays whose sum wraps past a duration's range: three hops of a
		// million hours used to build a path -2124095h one-way.
		"delay sum overflow":  {Hops: []Hop{long, long, long}},
		"round trip overflow": {Hops: []Hop{long, long}, Reverse: Reverse{Delay: long.Delay}},
		"symmetric overflow":  {Hops: []Hop{long, long}, Reverse: Reverse{Rate: 10 * unit.Mbps}},
	} {
		topo := topo
		if _, err := Build(Config{Topology: &topo}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestBuildRejectsOversizedCounts: a hop split or a flow list beyond the
// package's bounds is a one-line error naming the limit, returned before the
// topology compiler or the per-flow build allocates for it. `-hops
// 2000000000` used to die in the compiler asking for a 160 GB block.
func TestBuildRejectsOversizedCounts(t *testing.T) {
	t.Parallel()
	for name, cfg := range map[string]Config{
		"hops":  {Path: PathConfig{Hops: 2_000_000_000}},
		"flows": {Flows: make([]FlowSpec, MaxFlows+1)},
	} {
		_, err := Build(cfg)
		if err == nil || !strings.Contains(err.Error(), "exceeds the limit") {
			t.Errorf("%s: err = %v, want the limit named", name, err)
		}
	}
	if _, err := Build(Config{Path: PathConfig{Hops: MaxHops}, Duration: time.Millisecond}); err != nil {
		t.Errorf("a path of exactly MaxHops hops rejected: %v", err)
	}
}

// TestBuildRejectsEventLogOutsideBounds: a flight-recorder capacity below
// zero or above telemetry.MaxRingSize is a one-line error from Build and
// Reset alike. `-events-cap -5` used to run silently with the default ring,
// and `-events-cap 4000000000` to die in the runtime's out-of-memory abort.
func TestBuildRejectsEventLogOutsideBounds(t *testing.T) {
	t.Parallel()
	s, err := Build(Config{Duration: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{-5, -1, telemetry.MaxRingSize + 1, 4_000_000_000} {
		want := fmt.Sprintf("event log of %d events", n)
		if _, err := Build(Config{EventLog: n}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Build with EventLog %d: err = %v, want %q", n, err, want)
		}
		if err := s.Reset(Config{EventLog: n}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Reset with EventLog %d: err = %v, want %q", n, err, want)
		}
	}
	s, err = Build(Config{EventLog: telemetry.MaxRingSize, Duration: time.Millisecond})
	if err != nil {
		t.Fatalf("an event log of exactly MaxRingSize rejected: %v", err)
	}
	if s.FR.Cap() != telemetry.MaxRingSize {
		t.Errorf("ring capacity %d, want %d", s.FR.Cap(), telemetry.MaxRingSize)
	}
}

// TestSharedHostRouteMismatch: flows sharing one NIC must enter the path at
// the same hop — the interface has a single attachment point.
func TestSharedHostRouteMismatch(t *testing.T) {
	t.Parallel()
	hop := Hop{Rate: 10 * unit.Mbps, Delay: time.Millisecond, Queue: 50}
	topo := Topology{Hops: []Hop{hop, hop}}
	cfg := Config{
		Topology: &topo,
		Flows: []FlowSpec{
			{Alg: AlgStandard, Host: 1},
			{Alg: AlgStandard, Host: 1, Route: Route{FirstHop: 1}},
		},
	}
	if _, err := Build(cfg); err == nil {
		t.Error("mismatched routes on a shared host accepted")
	}
}

// TestPresetListMatchesApply: every name TopologyPresets advertises must
// apply (the list and ApplyPreset's switch are the same contract); campaign
// axis validation leans on this.
func TestPresetListMatchesApply(t *testing.T) {
	t.Parallel()
	for _, name := range TopologyPresets() {
		var cfg Config
		if err := ApplyPreset(&cfg, name); err != nil {
			t.Errorf("listed preset %q does not apply: %v", name, err)
			continue
		}
		if cfg.Topology == nil {
			t.Errorf("preset %q installed no topology", name)
		} else if err := cfg.Topology.Validate(); err != nil {
			t.Errorf("preset %q topology invalid: %v", name, err)
		}
	}
	for _, d := range QueueDisciplines() {
		if !knownDiscipline(d) {
			t.Errorf("listed discipline %q not known", d)
		}
	}
}
