package netem_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"rsstcp/internal/netem"
	"rsstcp/internal/packet"
	"rsstcp/internal/sim"
	"rsstcp/internal/telemetry"
	"rsstcp/internal/unit"
)

// delivery is one segment leaving the path under test.
type delivery struct {
	flow packet.FlowID
	seq  int64
	at   sim.Time
}

// deliveryLog records what leaves a path and releases it.
type deliveryLog struct {
	eng *sim.Engine
	got []delivery
}

func (l *deliveryLog) Receive(seg *packet.Segment) {
	l.got = append(l.got, delivery{seg.Flow, seg.Seq, l.eng.Now()})
	seg.Release()
}

// faultCounts is what one hop's injectors did.
type faultCounts struct{ lost, reordered, duplicated int64 }

// path is one side of the differential: where traffic enters, what leaves,
// the flight recorder, and the counters to compare.
type path struct {
	eng    *sim.Engine
	pool   *packet.Pool
	enter  func(*packet.Segment)
	log    *deliveryLog
	fr     *telemetry.FlightRecorder
	ports  []*netem.Port
	faults func() faultCounts
}

// drive offers two flows' segments at twice the first hop's rate for a
// while, then lets the path drain.
func (p *path) drive() {
	const n = 3000
	gap := (100 * unit.Mbps).Serialization(unit.ByteSize(1448 + packet.HeaderBytes))
	for i := 0; i < n; i++ {
		for f := packet.FlowID(1); f <= 2; f++ {
			seg := p.pool.Get()
			seg.Flow, seg.Seq, seg.Len = f, int64(i)*1448, 1448
			p.enter(seg)
		}
		p.eng.RunFor(gap)
	}
	p.eng.RunFor(time.Second)
}

// compare holds two driven paths to the same deliveries, flight record and
// counters.
func compare(t *testing.T, what string, got, want *path) {
	t.Helper()
	if len(got.log.got) != len(want.log.got) {
		t.Fatalf("%s: %d segments delivered, want %d", what, len(got.log.got), len(want.log.got))
	}
	for i := range got.log.got {
		if got.log.got[i] != want.log.got[i] {
			t.Fatalf("%s: delivery %d is %+v, want %+v", what, i, got.log.got[i], want.log.got[i])
		}
	}
	var g, w bytes.Buffer
	if err := got.fr.WriteJSONL(&g); err != nil {
		t.Fatal(err)
	}
	if err := want.fr.WriteJSONL(&w); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g.Bytes(), w.Bytes()) {
		t.Fatalf("%s: flight records differ:\n%s\nwant\n%s", what, g.String(), w.String())
	}
	for i := range got.ports {
		gp, wp := got.ports[i], want.ports[i]
		if gp.Stats() != wp.Stats() || gp.QueueStats() != wp.QueueStats() {
			t.Fatalf("%s: hop %d counters %+v %+v, want %+v %+v",
				what, i, gp.Stats(), gp.QueueStats(), wp.Stats(), wp.QueueStats())
		}
	}
	if g, w := got.faults(), want.faults(); g != w {
		t.Fatalf("%s: injector counts %+v, want %+v", what, g, w)
	}
	if gets, rels := got.pool.Counters(); gets != rels {
		t.Fatalf("%s: %d segments still checked out", what, gets-rels)
	}
}

// handChain fronts next with a hand-built loss → reorder → duplicate chain
// drawing from the streams sp seeds, as a scenario built it before the arena
// owned its injectors. Injectors sp leaves at zero are left out.
func handChain(eng *sim.Engine, fr *telemetry.FlightRecorder, hop int32, sp netem.HopSpec, next netem.Receiver) (netem.Receiver, func() faultCounts) {
	var loss *netem.Loss
	var reo *netem.Reorderer
	var dup *netem.Duplicator
	if sp.Duplicate > 0 {
		dup = &netem.Duplicator{P: sp.Duplicate, RNG: sim.NewRNG(sp.DuplicateSeed), Next: next, FR: fr, Eng: eng, Hop: hop}
		next = dup
	}
	if sp.Reorder > 0 {
		reo = netem.NewReorderer(eng, sp.Reorder, sp.ReorderDelay, sim.NewRNG(sp.ReorderSeed), next)
		reo.FR, reo.Hop = fr, hop
		next = reo
	}
	if sp.Loss > 0 {
		loss = &netem.Loss{P: sp.Loss, RNG: sim.NewRNG(sp.LossSeed), Next: next, FR: fr, Eng: eng, Hop: hop}
		next = loss
	}
	return next, func() (c faultCounts) {
		if loss != nil {
			c.lost = loss.Dropped()
		}
		if reo != nil {
			c.reordered = reo.Reordered()
		}
		if dup != nil {
			c.duplicated = dup.Duplicated()
		}
		return c
	}
}

func newPath(eng *sim.Engine) *path {
	return &path{eng: eng, pool: packet.NewPool(), log: &deliveryLog{eng: eng}, fr: telemetry.NewFlightRecorder(1 << 16)}
}

// owned configures arena a (on p's engine) with specs, injectors and all.
func (p *path) owned(a *netem.HopArena, specs []netem.HopSpec) *path {
	a.Configure(specs, p.log, p.fr)
	a.SetSpan(1, 0, len(specs)-1)
	a.SetSpan(2, 0, len(specs)-1)
	p.enter = a.Ingress(0).Receive
	p.ports = nil
	for i := range specs {
		p.ports = append(p.ports, a.Port(i))
	}
	p.faults = func() (c faultCounts) {
		for i := range specs {
			l, r, d := a.Faults(i)
			c.lost, c.reordered, c.duplicated = c.lost+l, c.reordered+r, c.duplicated+d
		}
		return c
	}
	return p
}

// plainSpec is sp without its injectors.
func plainSpec(sp netem.HopSpec) netem.HopSpec {
	sp.Loss, sp.Reorder, sp.Duplicate = 0, 0, 0
	return sp
}

// TestArenaInjectorsMatchHandBuiltChain: a hop whose injectors the arena owns
// is observationally a plain arena hop fronted by the Loss → Reorderer →
// Duplicator chain a scenario used to build around it — the same
// (flow, seq, time) deliveries, flight record and counters — including
// after Configure takes the injectors away and gives them back on the same
// row. The two-hop case puts the chain between hops, where the reference is
// two one-hop arenas joined through it.
func TestArenaInjectorsMatchHandBuiltChain(t *testing.T) {
	faulty := netem.HopSpec{
		Rate: 50 * unit.Mbps, Delay: 5 * time.Millisecond, Queue: 40, Watch: 0.5,
		Loss: 0.02, Reorder: 0.05, Duplicate: 0.03, ReorderDelay: 700 * time.Microsecond,
		LossSeed: 11, ReorderSeed: 12, DuplicateSeed: 13,
	}
	red := netem.DefaultREDConfig(60)
	redFaulty := faulty
	redFaulty.RED, redFaulty.REDSeed = &red, 4

	// reference builds the hand-wired one-hop side for sp.
	reference := func(sp netem.HopSpec) *path {
		p := newPath(sim.NewEngine())
		a := netem.NewHopArena(p.eng)
		p.owned(a, []netem.HopSpec{plainSpec(sp)})
		head, faults := handChain(p.eng, p.fr, 0, sp, a.Ingress(0))
		p.enter, p.faults = head.Receive, faults
		return p
	}

	// One row, reshaped in place: injectors, none, injectors again, a RED
	// admission behind them, and none again.
	got := newPath(sim.NewEngine())
	a := netem.NewHopArena(got.eng)
	for k, sp := range []netem.HopSpec{faulty, plainSpec(faulty), faulty, redFaulty, plainSpec(redFaulty)} {
		got.eng.Reset()
		got.fr.Reset()
		got.log.got = got.log.got[:0]
		got.owned(a, []netem.HopSpec{sp})
		want := reference(sp)
		got.drive()
		want.drive()
		compare(t, fmt.Sprintf("configuration %d", k), got, want)
		if got.ports[0].QueueStats().Dropped == 0 {
			t.Fatalf("configuration %d: the hop refused nothing; no queue drop was compared", k)
		}
		if c := got.faults(); (sp.Loss > 0) != (c.lost > 0) || (sp.Reorder > 0) != (c.reordered > 0) || (sp.Duplicate > 0) != (c.duplicated > 0) {
			t.Fatalf("configuration %d: injector counts %+v for spec %+v", k, c, sp)
		}
	}

	// Injectors on the second hop: the arena's hand-off into hop 1 goes
	// through its chain. Hop 1 is fast with a deep queue, so it refuses
	// nothing and the two-arena reference records the same hop indexes.
	first := netem.HopSpec{Rate: 100 * unit.Mbps, Delay: 2 * time.Millisecond, Queue: 30}
	second := faulty
	second.Rate, second.Queue = unit.Gbps, 100_000
	got2 := newPath(sim.NewEngine())
	got2.owned(netem.NewHopArena(got2.eng), []netem.HopSpec{first, second})
	want2 := newPath(sim.NewEngine())
	a0, a1 := netem.NewHopArena(want2.eng), netem.NewHopArena(want2.eng)
	a1.Configure([]netem.HopSpec{plainSpec(second)}, want2.log, want2.fr)
	head, faults := handChain(want2.eng, want2.fr, 1, second, a1.Ingress(0))
	a0.Configure([]netem.HopSpec{first}, head, want2.fr)
	want2.enter, want2.faults = a0.Ingress(0).Receive, faults
	want2.ports = []*netem.Port{a0.Port(0), a1.Port(0)}
	got2.drive()
	want2.drive()
	compare(t, "injectors on hop 1", got2, want2)
	if got2.ports[0].QueueStats().Dropped == 0 {
		t.Error("hop 0 refused nothing; the two-hop case exercised no queue drop")
	}
}

// TestArenaReshapeMatchesFreshArena: one arena reshaped through hop counts
// that reuse, shrink and grow its rows — growing into capacity an earlier
// append reserved but no row ever filled — delivers what a fresh arena of
// each shape delivers.
func TestArenaReshapeMatchesFreshArena(t *testing.T) {
	chain := func(n int) []netem.HopSpec {
		specs := make([]netem.HopSpec, n)
		for k := range specs {
			specs[k] = netem.HopSpec{Rate: unit.Bandwidth(90-5*k) * unit.Mbps, Delay: time.Duration(k+1) * time.Millisecond, Queue: 40}
		}
		last := &specs[n-1]
		last.Loss, last.Reorder, last.Duplicate = 0.01, 0.02, 0.01
		last.LossSeed, last.ReorderSeed, last.DuplicateSeed = uint64(n), uint64(n+1), uint64(n+2)
		return specs
	}
	for _, shapes := range [][]int{{3, 4}, {2, 3, 4}, {3, 1, 4}, {5, 6, 7, 8}} {
		got := newPath(sim.NewEngine())
		a := netem.NewHopArena(got.eng)
		for _, n := range shapes {
			got.eng.Reset()
			got.fr.Reset()
			got.log.got = got.log.got[:0]
			got.owned(a, chain(n))
			want := newPath(sim.NewEngine())
			want.owned(netem.NewHopArena(want.eng), chain(n))
			got.drive()
			want.drive()
			compare(t, fmt.Sprintf("shapes %v, %d hops", shapes, n), got, want)
			if len(got.log.got) == 0 {
				t.Fatalf("shapes %v, %d hops: nothing delivered", shapes, n)
			}
		}
	}
}
