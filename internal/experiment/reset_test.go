package experiment

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"rsstcp/internal/netem"
	"rsstcp/internal/unit"
)

// resetCfgs is a pair of deliberately different shapes, so the reuse path
// has to rebuild topology (flow count, loss, algorithm) and not just reseed.
func resetCfgs() (a, b Config) {
	a = Config{
		Flows:    []FlowSpec{{Alg: AlgStandard}},
		Duration: 2 * time.Second,
		Seed:     3,
	}
	b = Config{
		Path:     PathConfig{Loss: 0.004},
		Flows:    []FlowSpec{{Alg: AlgRestricted}, {Alg: AlgStandard, SACK: true}},
		Duration: 2 * time.Second,
		Seed:     9,
	}
	return a, b
}

// sameResult compares every scalar a campaign reads from a Result (the
// recorder pointer is identity, not state, and is excluded).
func sameResult(t *testing.T, label string, fresh, reused Result) {
	t.Helper()
	if fresh.Alg != reused.Alg ||
		fresh.Throughput != reused.Throughput ||
		fresh.Stalls != reused.Stalls ||
		fresh.Utilization != reused.Utilization ||
		fresh.RouterDrops != reused.RouterDrops ||
		fresh.InjectedDrops != reused.InjectedDrops ||
		fresh.Duration != reused.Duration ||
		fresh.TimeToUtil90 != reused.TimeToUtil90 ||
		fresh.Totals != reused.Totals ||
		fresh.Stats != reused.Stats ||
		fresh.NIC != reused.NIC {
		t.Errorf("%s: reused-context result diverged from fresh build\nfresh:  %+v\nreused: %+v",
			label, fresh, reused)
	}
	if len(fresh.FlowThroughputs) != len(reused.FlowThroughputs) {
		t.Fatalf("%s: flow count diverged", label)
	}
	for i := range fresh.FlowThroughputs {
		if fresh.FlowThroughputs[i] != reused.FlowThroughputs[i] {
			t.Errorf("%s: flow %d throughput %v (fresh) vs %v (reused)",
				label, i, fresh.FlowThroughputs[i], reused.FlowThroughputs[i])
		}
	}
}

// owned copies a Result's borrowed slices, so it can still be compared after
// its scenario's next Reset and Run.
func owned(r Result) Result {
	r.FlowThroughputs = slices.Clone(r.FlowThroughputs)
	r.FlowStats = slices.Clone(r.FlowStats)
	r.Hops = slices.Clone(r.Hops)
	r.Flows = slices.Clone(r.Flows)
	return r
}

// TestResetMatchesFreshBuild is the run-context-reuse contract: a scenario
// reset in place — reused engine, flow table, segment pool — must produce a
// Result identical to a freshly built scenario for the same configuration,
// in any reset order, traced or traceless.
func TestResetMatchesFreshBuild(t *testing.T) {
	t.Parallel()
	cfgA, cfgB := resetCfgs()
	for _, traceless := range []bool{false, true} {
		a, b := cfgA, cfgB
		a.Traceless, b.Traceless = traceless, traceless
		label := "traced"
		if traceless {
			label = "traceless"
		}

		freshA, err := Build(a)
		if err != nil {
			t.Fatal(err)
		}
		resA := freshA.Run()
		freshB, err := Build(b)
		if err != nil {
			t.Fatal(err)
		}
		resB := freshB.Run()

		// One context runs A, then B, then A again: both directions of
		// shape change, plus a same-shape re-run on a twice-used context.
		s, err := Build(a)
		if err != nil {
			t.Fatal(err)
		}
		s.Run()
		if err := s.Reset(b); err != nil {
			t.Fatal(err)
		}
		sameResult(t, label+" A->B", resB, s.Run())
		if err := s.Reset(a); err != nil {
			t.Fatal(err)
		}
		sameResult(t, label+" B->A", resA, s.Run())

		if got := s.Eng.Leaked(); got != 0 {
			t.Errorf("%s: reused engine leaked %d events", label, got)
		}
	}
}

// TestResetMatchesFreshBuildMultiHop extends the reset contract to the
// topology layer: resetting between a 3-hop parking-lot (cross traffic on
// the middle hop, congested asymmetric reverse channel) and a plain
// dumbbell — in both directions — must reproduce fresh builds exactly,
// per-hop counters and reverse drops included.
func TestResetMatchesFreshBuildMultiHop(t *testing.T) {
	t.Parallel()
	lot := parkingLot(AlgRestricted)
	plain, _ := resetCfgs()
	lot.Traceless, plain.Traceless = true, true

	freshLot, err := Build(lot)
	if err != nil {
		t.Fatal(err)
	}
	resLot := freshLot.Run()
	if resLot.ReverseDrops == 0 {
		t.Fatal("parking-lot reverse channel dropped no ACKs — bad test premise")
	}
	freshPlain, err := Build(plain)
	if err != nil {
		t.Fatal(err)
	}
	resPlain := freshPlain.Run()

	// One context: plain, then parking-lot, then plain again — the reuse
	// path must tear down and rebuild the hop graph both ways.
	s, err := Build(plain)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if err := s.Reset(lot); err != nil {
		t.Fatal(err)
	}
	reusedLot := s.Run()
	sameResult(t, "plain->lot", resLot, reusedLot)
	if len(resLot.Hops) != len(reusedLot.Hops) {
		t.Fatalf("hop count diverged: %d fresh vs %d reused", len(resLot.Hops), len(reusedLot.Hops))
	}
	for i := range resLot.Hops {
		if resLot.Hops[i] != reusedLot.Hops[i] {
			t.Errorf("hop %d stats diverged: %+v fresh vs %+v reused",
				i, resLot.Hops[i], reusedLot.Hops[i])
		}
	}
	if resLot.ReverseDrops != reusedLot.ReverseDrops {
		t.Errorf("reverse drops %d fresh vs %d reused", resLot.ReverseDrops, reusedLot.ReverseDrops)
	}
	if err := s.Reset(plain); err != nil {
		t.Fatal(err)
	}
	reusedPlain := s.Run()
	sameResult(t, "lot->plain", resPlain, reusedPlain)
	if len(reusedPlain.Hops) != 1 || reusedPlain.ReverseDrops != 0 {
		t.Errorf("dumbbell after reset reports %d hops, %d reverse drops",
			len(reusedPlain.Hops), reusedPlain.ReverseDrops)
	}

	if got := s.Eng.Leaked(); got != 0 {
		t.Errorf("reused engine leaked %d events across topology changes", got)
	}
}

// TestResetTracedSeriesMatchFresh: with tracing on, a reset scenario's
// sampled series must match a fresh build's point for point.
func TestResetTracedSeriesMatchFresh(t *testing.T) {
	t.Parallel()
	cfgA, cfgB := resetCfgs()

	fresh, err := Build(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	fresh.Run()

	s, err := Build(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if err := s.Reset(cfgB); err != nil {
		t.Fatal(err)
	}
	s.Run()

	for _, name := range []string{"util", "cwnd_segs/1", "ifq/2", "goodput_mbps/2"} {
		want := fresh.Rec.Series(name).Points
		got := s.Rec.Series(name).Points
		if len(want) == 0 {
			t.Fatalf("series %q empty in fresh run — bad test premise", name)
		}
		if len(got) != len(want) {
			t.Errorf("series %q: %d points reused vs %d fresh", name, len(got), len(want))
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("series %q diverges at point %d: %+v vs %+v", name, i, got[i], want[i])
				break
			}
		}
	}
}

// TestRecorderOnlyWhenTraced: a traceless Build or Reset holds no recorder
// and its Result carries none; a traced Reset gets a fresh recorder whose
// series, names and order included, are those of a fresh Build.
func TestRecorderOnlyWhenTraced(t *testing.T) {
	t.Parallel()
	traced, _ := resetCfgs()
	bare := traced
	bare.Traceless = true
	csv := func(s *Scenario) string {
		var b bytes.Buffer
		if err := s.Rec.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	fresh, err := Build(traced)
	if err != nil {
		t.Fatal(err)
	}
	fresh.Run()
	s, err := Build(bare)
	if err != nil {
		t.Fatal(err)
	}
	if res := s.Run(); s.Rec != nil || res.Rec != nil {
		t.Fatal("traceless Build holds a recorder")
	}
	if err := s.Reset(traced); err != nil {
		t.Fatal(err)
	}
	s.Run()
	first := s.Rec
	if first == nil || csv(s) != csv(fresh) {
		t.Fatal("traced Reset's series differ from a fresh traced Build's")
	}
	if err := s.Reset(bare); err != nil {
		t.Fatal(err)
	}
	if res := s.Run(); s.Rec != nil || res.Rec != nil {
		t.Fatal("traceless Reset kept a recorder")
	}
	if err := s.Reset(traced); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if s.Rec == first {
		t.Error("traced Reset reused the previous run's recorder")
	}
	if csv(s) != csv(fresh) {
		t.Error("second traced Reset's series differ from a fresh traced Build's")
	}
}

// TestTracelessScalarsMatchTraced: disabling tracing must not change any
// scalar output — the gauges are pure reads and the util mark replaces the
// sampled ramp. This is what lets campaigns run traceless while the grid
// golden output (produced traced before PR 4) stays byte-identical.
func TestTracelessScalarsMatchTraced(t *testing.T) {
	t.Parallel()
	_, cfg := resetCfgs()

	traced, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resTraced := traced.Run()

	cfg.Traceless = true
	bare, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resBare := bare.Run()

	sameResult(t, "traceless-vs-traced", resTraced, resBare)
	if bare.Eng.Processed() >= traced.Eng.Processed() {
		t.Errorf("traceless run processed %d events, traced %d — sampling ticker not removed",
			bare.Eng.Processed(), traced.Eng.Processed())
	}
}

// gridCells is the 64-cell shape of the benchmark's campaign_grid workload
// (bandwidth × RTT × txqueuelen × algorithm, 50 ms, traceless): the short
// replicates whose turnaround the recycling store exists for.
func gridCells() []Config {
	var cells []Config
	for _, bw := range []unit.Bandwidth{10 * unit.Mbps, 25 * unit.Mbps, 50 * unit.Mbps, 100 * unit.Mbps} {
		for _, rtt := range []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond, 60 * time.Millisecond} {
			for _, txq := range []int{50, 100} {
				for _, alg := range []Algorithm{AlgStandard, AlgRestricted} {
					cells = append(cells, Config{
						Path:      PathConfig{Bottleneck: bw, RTT: rtt, RouterQueue: 250, TxQueueLen: txq},
						Flows:     []FlowSpec{{Alg: alg}},
						Duration:  50 * time.Millisecond,
						Seed:      uint64(len(cells) + 1),
						Traceless: true,
					})
				}
			}
		}
	}
	return cells
}

// TestResetReturnsCheckedOutSegments: a 50 ms run ends with segments in
// IFQs, hop queues, propagation FIFOs and ACK lines (and, on the shapes
// appended to the grid, in the reverse link and in deferred reorder
// deliveries). Reset must hand every one back to the scenario's pool, or a
// reused context leaks a few segments per replicate forever.
func TestResetReturnsCheckedOutSegments(t *testing.T) {
	t.Parallel()
	cells := gridCells()
	lot := parkingLot(AlgRestricted)
	lot.Traceless = true
	reorder := cells[0]
	reorder.Topology = &Topology{Hops: []Hop{{
		Rate: 100 * unit.Mbps, Delay: 5 * time.Millisecond, Queue: 250, ReorderP: 0.2, DuplicateP: 0.05,
	}}}
	cells = append(cells, lot, reorder)

	s, err := Build(cells[0])
	if err != nil {
		t.Fatal(err)
	}
	held := int64(0)
	for i := 0; i < 200; i++ {
		s.Run()
		gets, releases := s.SegCounters()
		held += gets - releases
		if err := s.Reset(cells[(i+1)%len(cells)]); err != nil {
			t.Fatal(err)
		}
		if gets, releases = s.SegCounters(); gets != releases {
			t.Fatalf("cycle %d: %d segments still checked out right after Reset", i, gets-releases)
		}
	}
	if held == 0 {
		t.Fatal("no run ended with segments in flight — bad test premise")
	}
}

// TestResetReleasesDrainingNICSegments: a dynamic flow detached while its NIC
// still holds segments leaves them to drain into the network, its bundle
// parked as draining. A Reset before they have drained must hand them back
// like every other checked-out segment.
func TestResetReleasesDrainingNICSegments(t *testing.T) {
	t.Parallel()
	for _, at := range []time.Duration{870 * time.Millisecond, 2 * time.Second} {
		s := warmTurnoverScenario(t, PaperPath())
		f := mustAttach(t, s, FlowSpec{Alg: AlgStandard, Bytes: 50 << 20})
		s.Eng.RunFor(at)
		if f.NIC().Idle() {
			t.Fatalf("detached at %v with an idle NIC — bad test premise", at)
		}
		s.DetachFlow(f)
		if err := s.Reset(s.Cfg); err != nil {
			t.Fatal(err)
		}
		if gets, releases := s.SegCounters(); gets != releases {
			t.Errorf("detached at %v: %d segments still checked out right after Reset", at, gets-releases)
		}
	}
}

// TestResetRunAllocBudget pins what a steady-state replicate allocates on a
// reused scenario: nothing — the testbed is recycled and the Result borrows
// the scenario's buffers. The budget is exact so that one escaping variable
// per Reset (a closure capturing the flow in takeFlow did it) or one copied
// Result slice fails here, not in bench/.
//
// Past three grid cells come the shapes where netem does the most: bench/'s
// topo_mix trio (a RED parking lot, the reverse-congested preset, the paper
// path at 1 % loss with SACK), one hop with loss, reorder and duplication
// all on, and a RED hop with explicit parameters. Each Reset used to
// allocate on them: a RED configuration per RED hop (two for explicit
// parameters), the reverse link and its queue (with their FIFOs grown
// again), and every injector with its generator.
func TestResetRunAllocBudget(t *testing.T) {
	base := func(preset string) Config {
		cfg := Config{Flows: []FlowSpec{{Alg: AlgRestricted}}, Duration: 2 * time.Second, Seed: 9, Traceless: true}
		if preset != "" {
			if err := ApplyPreset(&cfg, preset); err != nil {
				t.Fatal(err)
			}
		}
		return cfg
	}
	lot := base("parking-lot")
	for i := range lot.Topology.Hops {
		lot.Topology.Hops[i].Discipline = DiscRED
	}
	lossy := base("")
	lossy.Path.Loss, lossy.Flows[0].SACK = 0.01, true
	faulty := base("")
	faulty.Topology = &Topology{Hops: []Hop{{Rate: 100 * unit.Mbps, Delay: 20 * time.Millisecond, Queue: 250,
		Loss: 0.01, ReorderP: 0.05, DuplicateP: 0.05}}}
	tuned := base("")
	red := netem.DefaultREDConfig(100)
	red.MaxP = 0.2
	tuned.Topology = &Topology{Hops: []Hop{{Rate: 100 * unit.Mbps, Delay: 20 * time.Millisecond, Queue: 100,
		Discipline: DiscRED, RED: &red}}}

	type shape struct {
		name string
		cfg  Config
	}
	var shapes []shape
	cells := gridCells()
	for _, cfg := range []Config{cells[0], cells[1], cells[len(cells)-1]} {
		shapes = append(shapes, shape{fmt.Sprintf("%s bw=%v", cfg.Flows[0].Alg, cfg.Path.Bottleneck), cfg})
	}
	shapes = append(shapes,
		shape{"RED parking lot", lot},
		shape{"reverse-congested", base("reverse-congested")},
		shape{"1% loss + SACK", lossy},
		shape{"loss, reorder and duplicate", faulty},
		shape{"explicit RED parameters", tuned},
	)
	for _, tc := range shapes {
		s, err := Build(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Run()
		allocs := testing.AllocsPerRun(50, func() {
			if err := s.Reset(tc.cfg); err != nil {
				t.Fatal(err)
			}
			s.Run()
		})
		if allocs != 0 {
			t.Errorf("%s: Reset+Run allocates %.1f objects, budget 0", tc.name, allocs)
		}
		if h := s.ResultFor(0).Hops[0]; tc.cfg.Topology == faulty.Topology && (h.LossDrops == 0 || h.Reordered == 0 || h.Duplicated == 0) {
			t.Errorf("%s: injectors idle (%+v); the budget covered none of their work", tc.name, h)
		}
	}
}

// TestBuildCostGate pins what one Build of the paper path allocates, for
// each algorithm: the testbed's own objects, not buffers sized for what a
// run might record. The flight recorder's ring grows with the events a run
// records, so a Build costs the same with the largest event log; while the
// ring was allocated whole, a Build cost about 87 KB at the default capacity
// and 40 MiB at 1 << 20 events.
//
// Not Parallel: it reads the process's allocation counters.
func TestBuildCostGate(t *testing.T) {
	const bytesBudget, objectsBudget = 8 << 10, 42
	for _, alg := range []Algorithm{AlgStandard, AlgRestricted} {
		for _, eventLog := range []int{0, 1 << 20} {
			cfg := Config{Path: PaperPath(), Flows: []FlowSpec{{Alg: alg}}, Traceless: true, EventLog: eventLog}
			if _, err := Build(cfg); err != nil { // warm any once-per-process state
				t.Fatal(err)
			}
			const builds = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < builds; i++ {
				if _, err := Build(cfg); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			b := float64(after.TotalAlloc-before.TotalAlloc) / builds
			objs := float64(after.Mallocs-before.Mallocs) / builds
			t.Logf("%s, EventLog %d: Build allocates %.0f B in %.1f objects", alg, eventLog, b, objs)
			if b > bytesBudget || objs > objectsBudget {
				t.Errorf("%s, EventLog %d: Build allocates %.0f B in %.1f objects, budget %d B and %d objects",
					alg, eventLog, b, objs, bytesBudget, objectsBudget)
			}
		}
	}
}

// TestResetAcrossShapesMatchesFreshBuild drives one scenario through a chain
// of deliberately unlike shapes, so every parked component is re-initialized
// for a job unlike its last one: a sender that ran SACK recovery at MSS 1000
// next runs a plain dumbbell, a NIC shared by two restricted flows next
// carries churn arrivals, delay lines are re-keyed, the reverse link comes
// and goes. After each Reset the run must be indistinguishable from a fresh
// Build's — Result, per-hop counters, completed-flow records and the flight
// recorder's bytes — which is what "recycled state carries nothing over"
// means.
func TestResetAcrossShapesMatchesFreshBuild(t *testing.T) {
	t.Parallel()
	dumbbell := Config{Flows: []FlowSpec{{Alg: AlgStandard}}, Duration: 2 * time.Second, Seed: 3}

	shared := Config{
		Flows: []FlowSpec{
			{Alg: AlgRestricted, Host: 1},
			{Alg: AlgRestricted, Host: 1, StartAt: 200 * time.Millisecond},
			{Alg: AlgRestricted, SetpointFraction: 0.8},
		},
		Duration: 2 * time.Second, Seed: 11, Traceless: true,
	}

	redHop := Hop{Rate: 100 * unit.Mbps, Delay: 10 * time.Millisecond, Queue: 250, Discipline: DiscRED}
	lossy := redHop
	lossy.Loss = 0.01
	redLot := Config{
		Topology: &Topology{Hops: []Hop{lossy, redHop, redHop}},
		Flows: []FlowSpec{
			{Alg: AlgStandard, SACK: true, MSS: 1000},
			{Alg: AlgStandard, Cross: true, Route: Route{FirstHop: 1, Hops: 1}, StartAt: 500 * time.Millisecond},
		},
		Duration: 2 * time.Second, Seed: 5, Traceless: true,
	}

	// One hop longer than the lot: the arena grows into a slot its row
	// slice reserved while growing to three hops but never filled.
	reordered := redHop
	reordered.Discipline, reordered.ReorderP, reordered.DuplicateP = "", 0.02, 0.01
	fourHops := Config{
		Topology: &Topology{Hops: []Hop{redHop, lossy, redHop, reordered}},
		Flows: []FlowSpec{
			{Alg: AlgRestricted},
			{Alg: AlgStandard, Cross: true, Route: Route{FirstHop: 3, Hops: 1}, StartAt: 300 * time.Millisecond},
		},
		Duration: 2 * time.Second, Seed: 6, Traceless: true,
	}

	revCongested := Config{Flows: []FlowSpec{{Alg: AlgRestricted}}, Duration: 2 * time.Second, Seed: 8}
	if err := ApplyPreset(&revCongested, "reverse-congested"); err != nil {
		t.Fatal(err)
	}

	churn := churnCfg()
	churn.Duration = 2 * time.Second
	churn.TimerWheel = true

	stallWait := Config{Flows: []FlowSpec{{Alg: AlgStallWait}}, Duration: 2 * time.Second, Seed: 13, Traceless: true}

	// A small flight recorder, then the default again: the ring must come
	// back to DefaultRingSize, not keep the 16 slots of the run before.
	smallLog := dumbbell
	smallLog.EventLog = 16

	chain := []struct {
		name string
		cfg  Config
	}{
		{"three flows, shared host, restricted", shared},
		{"RED parking lot, loss, SACK, MSS 1000", redLot},
		{"four hops, cross flow and injectors on the last", fourHops},
		{"reverse-congested", revCongested},
		{"poisson churn, timer wheel", churn},
		{"stall-wait", stallWait},
		{"dumbbell, 16-event flight recorder", smallLog},
		{"dumbbell again, default flight recorder", dumbbell},
	}

	s, err := Build(dumbbell)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	for _, step := range chain {
		fresh, err := Build(step.cfg)
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		want := fresh.Run()
		if err := s.Reset(step.cfg); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		got := s.Run()

		sameChurnResult(t, step.name, want, got)
		if len(want.Hops) != len(got.Hops) {
			t.Fatalf("%s: %d hops (fresh) vs %d (reused)", step.name, len(want.Hops), len(got.Hops))
		}
		for i := range want.Hops {
			if want.Hops[i] != got.Hops[i] {
				t.Errorf("%s: hop %d diverged: %+v (fresh) vs %+v (reused)", step.name, i, want.Hops[i], got.Hops[i])
			}
		}
		if want.ReverseDrops != got.ReverseDrops {
			t.Errorf("%s: reverse drops %d (fresh) vs %d (reused)", step.name, want.ReverseDrops, got.ReverseDrops)
		}
		for i := range want.FlowStats {
			if want.FlowStats[i] != got.FlowStats[i] {
				t.Errorf("%s: flow %d Web100 snapshot diverged", step.name, i)
			}
		}
		if w, g := fresh.FR.AppendJSONL(nil), s.FR.AppendJSONL(nil); !bytes.Equal(w, g) {
			t.Errorf("%s: flight recorder diverged (%d bytes fresh, %d reused)", step.name, len(w), len(g))
		} else if len(w) == 0 {
			t.Errorf("%s: flight recorder empty — bad test premise", step.name)
		}
		if got := s.Eng.Leaked(); got != 0 {
			t.Errorf("%s: reused engine leaked %d events", step.name, got)
		}
	}
}

// TestResetSharedConfigMatchesFreshBuild: a scenario's endpoints point at
// shared specs and connection configs it owns and Reset rebuilds in place, so a replicate must
// never run on the parameters of the one before it. One context alternates
// MSS, SACK and the stall policy, then runs a static flow beside churn (two
// distinct configs live at once); each replicate's Result and configs must
// deep-equal a fresh Build's.
func TestResetSharedConfigMatchesFreshBuild(t *testing.T) {
	t.Parallel()
	var chain []Config
	for i, f := range []FlowSpec{
		{Alg: AlgStandard, MSS: 1000},
		{Alg: AlgStandard, SACK: true},
		{Alg: AlgStandard, StallWait: true},
		{Alg: AlgRestricted, SACK: true, MSS: 536},
		{Alg: AlgStandard},
	} {
		chain = append(chain, Config{
			Path:     PathConfig{Loss: 0.002},
			Flows:    []FlowSpec{f},
			Duration: time.Second, Seed: uint64(30 + i), Traceless: true,
		})
	}
	mixed := churnCfg()
	mixed.Flows = []FlowSpec{{Alg: AlgStandard, SACK: true, MSS: 1000}}
	mixed.Duration = time.Second
	chain = append(chain, mixed, chain[0])

	// The shared specs and their configs' parameters, without the
	// scenario's own wiring: engine, pool, wheel, flight recorder and stall
	// and completion hooks.
	params := func(shared []*sharedSpec) []sharedSpec {
		var out []sharedSpec
		for _, sh := range shared {
			v := *sh
			v.tcp.Eng, v.tcp.Pool, v.tcp.Wheel = nil, nil, nil
			v.tcp.FR, v.tcp.OnStall, v.tcp.OnComplete, v.reno.FR = nil, nil, nil, nil
			out = append(out, v)
		}
		return out
	}
	s, err := Build(chain[len(chain)-2])
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	for i, cfg := range chain {
		fresh, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := owned(fresh.Run())
		if err := s.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		got := owned(s.Run())
		if got.Throughput == 0 {
			t.Fatalf("replicate %d moved no data — bad test premise", i)
		}
		want.Rec, got.Rec = nil, nil
		if !reflect.DeepEqual(want, got) {
			t.Errorf("replicate %d: reused-context result diverged from fresh build\nfresh:  %+v\nreused: %+v", i, want, got)
		}
		if w, g := params(fresh.shared), params(s.shared); !reflect.DeepEqual(w, g) {
			t.Errorf("replicate %d: shared specs diverged\nfresh:  %+v\nreused: %+v", i, w, g)
		}
		if cfg.Churn != nil && len(s.shared) != 2 {
			t.Errorf("replicate %d: static flow beside churn ran on %d shared specs, want 2", i, len(s.shared))
		}
	}
}
