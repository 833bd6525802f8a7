package netem

import (
	"testing"
	"time"

	"rsstcp/internal/packet"
	"rsstcp/internal/sim"
	"rsstcp/internal/unit"
)

// TestAllocBudgetLinkLoop locks in the allocation-free steady state of the
// store-and-forward path: enqueue → serialize → propagate → deliver, with
// the delivered segment released back to the pool.
func TestAllocBudgetLinkLoop(t *testing.T) {
	eng := sim.NewEngine()
	pool := packet.NewPool()
	sink := Func(func(seg *packet.Segment) { seg.Release() })
	link := NewLink(eng, 100*unit.Mbps, time.Millisecond, NewDropTail(64), sink)

	send := func() {
		seg := pool.Get()
		seg.Len = 1448
		link.Receive(seg)
		eng.RunFor(10 * time.Millisecond)
	}
	// Warm-up fills the event and segment pools.
	for i := 0; i < 32; i++ {
		send()
	}
	avg := testing.AllocsPerRun(500, send)
	if avg > 0 {
		t.Errorf("link transmit loop allocates %.2f/segment, want 0", avg)
	}
	if got := eng.Leaked(); got != 0 {
		t.Errorf("leaked %d pooled events", got)
	}
}

// TestAllocBudgetWireLoop does the same for the pure-delay element, whose
// per-segment delivery used to cost a closure allocation.
func TestAllocBudgetWireLoop(t *testing.T) {
	eng := sim.NewEngine()
	pool := packet.NewPool()
	sink := Func(func(seg *packet.Segment) { seg.Release() })
	wire := NewWire(eng, time.Millisecond, sink)

	send := func() {
		seg := pool.Get()
		seg.Len = 1448
		wire.Receive(seg)
		eng.RunFor(2 * time.Millisecond)
	}
	for i := 0; i < 32; i++ {
		send()
	}
	avg := testing.AllocsPerRun(500, send)
	if avg > 0 {
		t.Errorf("wire delivery allocates %.2f/segment, want 0", avg)
	}
}

// arenaForBudget builds a warmed two-hop arena whose exits release back to
// the pool, mirroring the link-loop harness shape.
func arenaForBudget(capPackets int, red bool) (*sim.Engine, *HopArena) {
	eng := sim.NewEngine()
	sink := Func(func(seg *packet.Segment) { seg.Release() })
	a := NewHopArena(eng)
	specs := []HopSpec{
		{Rate: 100 * unit.Mbps, Delay: time.Millisecond, Queue: capPackets},
		{Rate: 50 * unit.Mbps, Delay: 2 * time.Millisecond, Queue: capPackets},
	}
	if red {
		cfg := DefaultREDConfig(capPackets)
		specs[1].RED = &cfg
		specs[1].REDSeed = 7
	}
	a.Configure(specs, sink, nil)
	return eng, a
}

// TestAllocBudgetArenaLoop locks in the allocation-free steady state of the
// arena's full hop traversal: admit at hop 0 → serialize → propagate →
// index-dispatch into hop 1 → serialize → propagate → exit, including a RED
// admission test (and its RNG draw) on the second hop.
func TestAllocBudgetArenaLoop(t *testing.T) {
	eng, a := arenaForBudget(64, true)
	pool := packet.NewPool()
	send := func() {
		seg := pool.Get()
		seg.Len = 1448
		a.Receive(0, seg)
		eng.RunFor(20 * time.Millisecond)
	}
	// Warm-up fills the event and segment pools and the per-hop queues.
	for i := 0; i < 32; i++ {
		send()
	}
	avg := testing.AllocsPerRun(500, send)
	if avg > 0 {
		t.Errorf("arena hop traversal allocates %.2f/segment, want 0", avg)
	}
	if got := eng.Leaked(); got != 0 {
		t.Errorf("leaked %d pooled events", got)
	}
}

// TestAllocBudgetArenaDropAccounting pins the refusal path — occupancy
// accounting, drop counters, flight-record write, segment release — to zero
// allocations: a two-packet queue under a burst refuses most arrivals.
func TestAllocBudgetArenaDropAccounting(t *testing.T) {
	eng := sim.NewEngine()
	sink := Func(func(seg *packet.Segment) { seg.Release() })
	a := NewHopArena(eng)
	a.Configure([]HopSpec{{Rate: 1 * unit.Mbps, Queue: 2}}, sink, nil)
	pool := packet.NewPool()
	burst := func() {
		for i := 0; i < 8; i++ {
			seg := pool.Get()
			seg.Len = 1448
			a.Receive(0, seg)
		}
		eng.Run()
	}
	for i := 0; i < 8; i++ {
		burst()
	}
	before := a.Port(0).QueueStats().Dropped
	avg := testing.AllocsPerRun(100, burst)
	if avg > 0 {
		t.Errorf("arena drop path allocates %.2f/burst, want 0", avg)
	}
	if a.Port(0).QueueStats().Dropped == before {
		t.Fatal("burst produced no drops; the test exercised nothing")
	}
}

// TestAllocBudgetArenaReconfigure re-checks the budget after Configure
// rebuilds the arena in place — the Scenario.Reset path — so reuse keeps
// the warmed backing arrays instead of re-allocating per run.
func TestAllocBudgetArenaReconfigure(t *testing.T) {
	eng, a := arenaForBudget(64, true)
	pool := packet.NewPool()
	send := func() {
		seg := pool.Get()
		seg.Len = 1448
		a.Receive(0, seg)
		eng.RunFor(20 * time.Millisecond)
	}
	for i := 0; i < 32; i++ {
		send()
	}
	// Reshape in place twice (same shape, then back), as a campaign
	// worker's Reset does between replicates.
	sink := Func(func(seg *packet.Segment) { seg.Release() })
	cfg := DefaultREDConfig(64)
	specs := []HopSpec{
		{Rate: 100 * unit.Mbps, Delay: time.Millisecond, Queue: 64},
		{Rate: 50 * unit.Mbps, Delay: 2 * time.Millisecond, Queue: 64, RED: &cfg, REDSeed: 7},
	}
	a.Configure(specs, sink, nil)
	a.Configure(specs, sink, nil)
	for i := 0; i < 4; i++ {
		send()
	}
	avg := testing.AllocsPerRun(500, send)
	if avg > 0 {
		t.Errorf("arena hot path allocates %.2f/segment after reconfigure, want 0", avg)
	}
}

// TestArenaReleasesDroppedSegments verifies the arena's refusal path
// recycles segments: a saturated two-packet queue must not strand pooled
// segments.
func TestArenaReleasesDroppedSegments(t *testing.T) {
	eng := sim.NewEngine()
	blackhole := Func(func(seg *packet.Segment) { seg.Release() })
	a := NewHopArena(eng)
	a.Configure([]HopSpec{{Rate: 1 * unit.Mbps, Queue: 2}}, blackhole, nil)

	pool := packet.NewPool()
	for i := 0; i < 16; i++ {
		seg := pool.Get()
		seg.Len = 1448
		a.Receive(0, seg)
	}
	eng.Run()
	if a.Port(0).QueueStats().Dropped == 0 {
		t.Fatal("expected drops on a 2-packet queue")
	}
	if gets, rels := pool.Counters(); rels != gets {
		t.Errorf("segment leak: %d gets vs %d releases", gets, rels)
	}
}

// TestLinkReleasesDroppedSegments verifies the drop path recycles: a full
// queue must not strand pooled segments.
func TestLinkReleasesDroppedSegments(t *testing.T) {
	eng := sim.NewEngine()
	blackhole := Func(func(seg *packet.Segment) { seg.Release() })
	link := NewLink(eng, 1*unit.Mbps, 0, NewDropTail(2), blackhole)

	pool := packet.NewPool()
	for i := 0; i < 16; i++ {
		seg := pool.Get()
		seg.Len = 1448
		link.Receive(seg)
	}
	eng.Run()
	if link.QueueStats().Dropped == 0 {
		t.Fatal("expected drops on a 2-packet queue")
	}
	if gets, rels := pool.Counters(); rels != gets {
		t.Errorf("segment leak: %d gets vs %d releases", gets, rels)
	}
}
