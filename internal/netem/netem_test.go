package netem

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"rsstcp/internal/packet"
	"rsstcp/internal/sim"
	"rsstcp/internal/unit"
)

func seg(n int) *packet.Segment {
	return &packet.Segment{Len: n, Flags: packet.FlagACK}
}

func TestSinkCounts(t *testing.T) {
	s := &Sink{}
	s.Receive(seg(100))
	s.Receive(seg(200))
	if s.Packets != 2 {
		t.Errorf("Packets = %d, want 2", s.Packets)
	}
	wantBytes := int64(100 + 200 + 2*packet.HeaderBytes)
	if s.Bytes != wantBytes {
		t.Errorf("Bytes = %d, want %d", s.Bytes, wantBytes)
	}
	if s.Last.Len != 200 {
		t.Errorf("Last.Len = %d, want 200", s.Last.Len)
	}
}

func TestFuncReceiver(t *testing.T) {
	got := 0
	var r Receiver = Func(func(s *packet.Segment) { got = s.Len })
	r.Receive(seg(42))
	if got != 42 {
		t.Errorf("Func receiver saw %d, want 42", got)
	}
}

func TestDropTailFIFOOrder(t *testing.T) {
	q := NewDropTail(10)
	for i := 0; i < 5; i++ {
		if !q.Enqueue(&packet.Segment{Seq: int64(i)}) {
			t.Fatalf("enqueue %d failed", i)
		}
	}
	for i := 0; i < 5; i++ {
		s := q.Dequeue()
		if s == nil || s.Seq != int64(i) {
			t.Fatalf("dequeue %d = %v, want seq %d", i, s, i)
		}
	}
	if q.Dequeue() != nil {
		t.Error("Dequeue on empty queue returned a segment")
	}
}

func TestDropTailCapacityAndDrops(t *testing.T) {
	q := NewDropTail(3)
	for i := 0; i < 3; i++ {
		if !q.Enqueue(seg(100)) {
			t.Fatalf("enqueue %d refused below capacity", i)
		}
	}
	if q.Enqueue(seg(100)) {
		t.Error("enqueue succeeded beyond capacity")
	}
	st := q.Stats()
	if st.Dropped != 1 || st.Enqueued != 3 || st.MaxLen != 3 {
		t.Errorf("stats = %+v, want Dropped=1 Enqueued=3 MaxLen=3", st)
	}
	// Draining one packet makes room again.
	q.Dequeue()
	if !q.Enqueue(seg(100)) {
		t.Error("enqueue refused after drain")
	}
}

func TestDropTailUnlimited(t *testing.T) {
	q := NewDropTail(0)
	for i := 0; i < 10000; i++ {
		if !q.Enqueue(seg(1)) {
			t.Fatal("unlimited queue dropped")
		}
	}
	if q.Len() != 10000 {
		t.Errorf("Len = %d, want 10000", q.Len())
	}
}

func TestDropTailCompaction(t *testing.T) {
	// Heavy churn through one queue: order holds and nothing stays behind.
	q := NewDropTail(0)
	next := int64(0)
	for round := 0; round < 100; round++ {
		for i := 0; i < 100; i++ {
			q.Enqueue(&packet.Segment{Seq: next})
			next++
		}
		for i := 0; i < 100; i++ {
			if got, want := q.Dequeue().Seq, next-100+int64(i); got != want {
				t.Fatalf("round %d: dequeued seq %d, want %d", round, got, want)
			}
		}
	}
	if q.Len() != 0 {
		t.Errorf("Len=%d after balanced churn, want 0", q.Len())
	}
}

func TestWireDelaysDelivery(t *testing.T) {
	eng := sim.NewEngine()
	var arrived sim.Time = -1
	w := NewWire(eng, 30*time.Millisecond, Func(func(*packet.Segment) { arrived = eng.Now() }))
	w.Receive(seg(100))
	eng.Run()
	if arrived != sim.At(30*time.Millisecond) {
		t.Errorf("arrived at %v, want 30ms", arrived)
	}
}

func TestLinkSerializationTiming(t *testing.T) {
	eng := sim.NewEngine()
	var times []sim.Time
	l := NewLink(eng, 100*unit.Mbps, 0, NewDropTail(100),
		Func(func(*packet.Segment) { times = append(times, eng.Now()) }))
	// Two 1460B segments = 1500B wire size = 120us each at 100 Mbps.
	l.Receive(seg(1460))
	l.Receive(seg(1460))
	eng.Run()
	if len(times) != 2 {
		t.Fatalf("delivered %d, want 2", len(times))
	}
	if times[0] != sim.At(120*time.Microsecond) {
		t.Errorf("first at %v, want 120us", times[0])
	}
	if times[1] != sim.At(240*time.Microsecond) {
		t.Errorf("second at %v, want 240us (store-and-forward)", times[1])
	}
}

func TestLinkPropagationAddsDelay(t *testing.T) {
	eng := sim.NewEngine()
	var at sim.Time
	l := NewLink(eng, 100*unit.Mbps, 10*time.Millisecond, NewDropTail(10),
		Func(func(*packet.Segment) { at = eng.Now() }))
	l.Receive(seg(1460))
	eng.Run()
	want := sim.At(120*time.Microsecond + 10*time.Millisecond)
	if at != want {
		t.Errorf("arrival %v, want %v", at, want)
	}
}

func TestLinkDropsWhenQueueFull(t *testing.T) {
	eng := sim.NewEngine()
	sink := &Sink{}
	l := NewLink(eng, 1*unit.Mbps, 0, NewDropTail(2), sink)
	// Burst of 5: 1 in service + 2 queued, 2 dropped.
	for i := 0; i < 5; i++ {
		l.Receive(seg(1460))
	}
	eng.Run()
	if sink.Packets != 3 {
		t.Errorf("delivered %d, want 3", sink.Packets)
	}
	if drops := l.QueueStats().Dropped; drops != 2 {
		t.Errorf("drops = %d, want 2", drops)
	}
}

func TestLinkStatsAndUtilization(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLink(eng, 100*unit.Mbps, 0, NewDropTail(10), &Sink{})
	for i := 0; i < 10; i++ {
		l.Receive(seg(1460))
	}
	eng.Run()
	st := l.Stats()
	if st.Sent != 10 {
		t.Errorf("Sent = %d, want 10", st.Sent)
	}
	if st.SentBytes != 10*1500 {
		t.Errorf("SentBytes = %d, want 15000", st.SentBytes)
	}
	// Link was busy the whole run.
	if u := l.Utilization(eng.Now()); u < 0.99 || u > 1.01 {
		t.Errorf("Utilization = %v, want ~1", u)
	}
}

func TestLinkPipelineKeepsOrder(t *testing.T) {
	eng := sim.NewEngine()
	var seqs []int64
	l2 := NewLink(eng, 100*unit.Mbps, time.Millisecond, NewDropTail(0),
		Func(func(s *packet.Segment) { seqs = append(seqs, s.Seq) }))
	l1 := NewLink(eng, 1*unit.Gbps, time.Millisecond, NewDropTail(0), l2)
	for i := 0; i < 50; i++ {
		l1.Receive(&packet.Segment{Seq: int64(i), Len: 1460})
	}
	eng.Run()
	if len(seqs) != 50 {
		t.Fatalf("delivered %d, want 50", len(seqs))
	}
	for i, s := range seqs {
		if s != int64(i) {
			t.Fatalf("out of order at %d: %v", i, seqs)
		}
	}
}

func TestLinkPanicsOnBadArgs(t *testing.T) {
	eng := sim.NewEngine()
	cases := map[string]func(){
		"zero rate": func() { NewLink(eng, 0, 0, NewDropTail(1), &Sink{}) },
		"nil queue": func() { NewLink(eng, unit.Mbps, 0, nil, &Sink{}) },
		"nil dst":   func() { NewLink(eng, unit.Mbps, 0, NewDropTail(1), nil) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestLossDeterministic: P 1 drops every segment and P 0 none, whatever
// the stream, and a Loss without an RNG never drops.
func TestLossDeterministic(t *testing.T) {
	for _, row := range []struct {
		l    Loss
		want int // segments delivered of 9
	}{
		{Loss{P: 1, RNG: sim.NewRNG(1)}, 0},
		{Loss{P: 0, RNG: sim.NewRNG(1)}, 9},
		{Loss{P: 1}, 9},
	} {
		sink := &Sink{}
		l := row.l
		l.Next = sink
		for i := 0; i < 9; i++ {
			l.Receive(seg(1))
		}
		if sink.Packets != row.want || l.Dropped() != int64(9-row.want) {
			t.Errorf("P=%v rng=%v: delivered=%d dropped=%d, want %d/%d",
				row.l.P, row.l.RNG != nil, sink.Packets, l.Dropped(), row.want, 9-row.want)
		}
	}
}

func TestLossRandomRate(t *testing.T) {
	sink := &Sink{}
	l := &Loss{P: 0.2, RNG: sim.NewRNG(1), Next: sink}
	const n = 50000
	for i := 0; i < n; i++ {
		l.Receive(seg(1))
	}
	rate := float64(l.Dropped()) / n
	if rate < 0.18 || rate > 0.22 {
		t.Errorf("drop rate = %v, want ~0.2", rate)
	}
}

func TestLossZeroNeverDrops(t *testing.T) {
	sink := &Sink{}
	l := &Loss{P: 0, RNG: sim.NewRNG(1), Next: sink}
	for i := 0; i < 1000; i++ {
		l.Receive(seg(1))
	}
	if l.Dropped() != 0 {
		t.Errorf("dropped %d with P=0", l.Dropped())
	}
}

func TestDuplicator(t *testing.T) {
	sink := &Sink{}
	d := &Duplicator{P: 1, RNG: sim.NewRNG(1), Next: sink}
	d.Receive(seg(7))
	if sink.Packets != 2 || d.Duplicated() != 1 {
		t.Errorf("packets=%d dup=%d, want 2/1", sink.Packets, d.Duplicated())
	}
}

func TestReordererHoldsBack(t *testing.T) {
	eng := sim.NewEngine()
	var seqs []int64
	next := Func(func(s *packet.Segment) { seqs = append(seqs, s.Seq) })
	r := NewReorderer(eng, 1, 10*time.Millisecond, sim.NewRNG(1), next)
	r.Receive(&packet.Segment{Seq: 1})
	// Second segment bypasses the injector, arriving first.
	next.Receive(&packet.Segment{Seq: 2})
	eng.Run()
	if len(seqs) != 2 || seqs[0] != 2 || seqs[1] != 1 {
		t.Errorf("order = %v, want [2 1]", seqs)
	}
	if r.Reordered() != 1 {
		t.Errorf("Reordered = %d, want 1", r.Reordered())
	}
}

// redHop returns a one-hop arena whose hop runs RED with cfg, and its engine.
// The tests below drive the hop's admission (enqueue) and its queue's
// service half (Port(0).q.Dequeue) directly, holding the queue length where
// they want it.
func redHop(cfg REDConfig, seed uint64) (*sim.Engine, *HopArena) {
	eng := sim.NewEngine()
	a := NewHopArena(eng)
	a.Configure([]HopSpec{{Rate: 100 * unit.Mbps, Queue: cfg.Capacity, RED: &cfg, REDSeed: seed}}, &Sink{}, nil)
	return eng, a
}

func TestREDBelowMinNeverDrops(t *testing.T) {
	_, a := redHop(DefaultREDConfig(100), 1)
	for i := 0; i < 10; i++ {
		if !a.enqueue(0, seg(1)) {
			t.Fatal("RED dropped below MinThreshold")
		}
	}
}

func TestREDFullAlwaysDrops(t *testing.T) {
	cfg := DefaultREDConfig(100)
	cfg.Weight = 1 // instant average so the threshold bites immediately
	_, a := redHop(cfg, 1)
	dropped := false
	for i := 0; i < 200; i++ {
		if !a.enqueue(0, seg(1)) {
			dropped = true
		}
	}
	if !dropped {
		t.Error("RED never dropped despite overload")
	}
	if n := a.Port(0).Len(); n > 100 {
		t.Errorf("RED exceeded capacity: %d", n)
	}
}

func TestREDIntermediateDropsProbabilistically(t *testing.T) {
	cfg := DefaultREDConfig(100) // min 25, max 75
	cfg.Weight = 1
	_, a := redHop(cfg, 1)
	// Hold the instantaneous length near 50 and count drops.
	for i := 0; i < 50; i++ {
		a.enqueue(0, seg(1))
	}
	const trials = 2000
	for i := 0; i < trials; i++ {
		if a.enqueue(0, seg(1)) {
			a.Port(0).q.Dequeue() // keep length constant
		}
	}
	drops := a.Port(0).QueueStats().Dropped
	if drops == 0 {
		t.Error("RED never early-dropped in the intermediate band")
	}
	if drops == trials {
		t.Error("RED dropped everything in the intermediate band")
	}
}

func TestREDPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad RED config did not panic")
		}
	}()
	redHop(REDConfig{Capacity: 10, MinThreshold: 5, MaxThreshold: 5}, 0)
}

func TestLinkAvgQueueLen(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLink(eng, 100*unit.Mbps, 0, NewDropTail(100), &Sink{})
	// Two back-to-back 1460B segments (120us serialization each): the
	// second waits in the queue for the first's full 120us, so over the
	// 240us busy period the average queue length is 0.5 packets.
	l.Receive(seg(1460))
	l.Receive(seg(1460))
	eng.Run()
	now := eng.Now()
	if now != sim.At(240*time.Microsecond) {
		t.Fatalf("run ended at %v, want 240us", now)
	}
	got := l.AvgQueueLen(now)
	if got < 0.49 || got > 0.51 {
		t.Errorf("AvgQueueLen = %v, want 0.5", got)
	}
}

// TestDropTailOwnsNoStorage: a drop-tail queue holds its segments by their
// own links, so its value carries no slice, map or channel at any depth, and
// cycling segments through it allocates nothing. While it kept a ring, a
// queue that never held more than two segments could grow it to 128 slots.
func TestDropTailOwnsNoStorage(t *testing.T) {
	if path, ok := holdsStorage(reflect.TypeFor[DropTail](), "DropTail"); ok {
		t.Errorf("%s can hold storage of its own", path)
	}
	q := NewDropTail(1000)
	a, b := seg(1), seg(2)
	q.Enqueue(a)
	cycle := func() {
		// Occupancy 1 → 2 → 1, never empty.
		q.Enqueue(b)
		q.Dequeue()
		a, b = b, a
	}
	for i := 0; i < 10000; i++ {
		cycle()
	}
	if q.Len() != 1 || q.Stats().MaxLen != 2 {
		t.Fatalf("Len=%d MaxLen=%d, want 1 and 2", q.Len(), q.Stats().MaxLen)
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Errorf("a warm enqueue/dequeue cycle allocates %.1f objects, want 0", allocs)
	}
}

// holdsStorage reports the first field path under t whose kind owns a
// backing store (slice, map, channel), following structs and arrays; it
// stops at pointers, which the queue holds into the segments it links.
func holdsStorage(t reflect.Type, path string) (string, bool) {
	switch t.Kind() {
	case reflect.Slice, reflect.Map, reflect.Chan:
		return path, true
	case reflect.Array:
		return holdsStorage(t.Elem(), path+"[]")
	case reflect.Struct:
		for i := range t.NumField() {
			f := t.Field(i)
			if p, ok := holdsStorage(f.Type, path+"."+f.Name); ok {
				return p, true
			}
		}
	}
	return "", false
}

// FuzzDropTailAgainstModel drives random enqueue/dequeue/Flush/Init sequences
// against a plain-slice FIFO: same segments in the same order, same Len and
// Stats, drops exactly at capacity, and a Flush that releases every held
// segment back to its pool exactly once. The segments come from a pool; the
// test releases what it dequeues or has refused, so the pool balances at the
// end.
func FuzzDropTailAgainstModel(f *testing.F) {
	churn := make([]byte, 0, 600)
	for i := 0; i < 300; i++ {
		churn = append(churn, 10, 200) // enqueue, dequeue: occupancy ≤ 2
	}
	f.Add(uint8(0), append([]byte{1}, churn...))
	f.Add(uint8(3), []byte{1, 2, 3, 4, 5, 200, 6, 200, 200, 200, 200, 7})
	f.Add(uint8(0), []byte{1, 2, 3, 251, 4, 255, 5, 200, 6, 7, 8, 9, 200, 200})
	f.Fuzz(func(t *testing.T, limit uint8, ops []byte) {
		pool := packet.NewPool()
		q := NewDropTail(int(limit))
		var model []*packet.Segment
		var want QueueStats
		for i, op := range ops {
			switch {
			case op < 160:
				s := pool.Get()
				s.Seq, s.Len = int64(i), int(op)+1
				full := limit > 0 && len(model) >= int(limit)
				if ok := q.Enqueue(s); ok == full {
					t.Fatalf("op %d: Enqueue = %v with %d queued, capacity %d", i, ok, len(model), limit)
				}
				if full {
					want.Dropped++
					s.Release()
					break
				}
				model = append(model, s)
				want.Enqueued++
				want.MaxLen = max(want.MaxLen, len(model))
			case op < 250:
				got := q.Dequeue()
				if len(model) == 0 {
					if got != nil {
						t.Fatalf("op %d: Dequeue on empty returned %+v", i, got)
					}
					break
				}
				if got != model[0] {
					t.Fatalf("op %d: Dequeue returned seq %d, model says %d", i, got.Seq, model[0].Seq)
				}
				got.Release()
				want.Dequeued++
				model = model[1:]
			default:
				_, before := pool.Counters()
				q.Flush()
				if _, after := pool.Counters(); after-before != int64(len(model)) {
					t.Fatalf("op %d: Flush of %d segments made %d releases", i, len(model), after-before)
				}
				for _, s := range model {
					if s.Len != 0 {
						t.Fatalf("op %d: Flush left seq %d unreleased", i, s.Seq)
					}
				}
				want.Dequeued += int64(len(model))
				model = nil
				if op >= 253 {
					q.Init(int(limit))
					want = QueueStats{}
				}
			}
			if q.Len() != len(model) || q.Stats() != want {
				t.Fatalf("op %d: Len=%d Stats=%+v, model has %d, %+v",
					i, q.Len(), q.Stats(), len(model), want)
			}
		}
		q.Flush()
		if gets, rels := pool.Counters(); gets != rels {
			t.Fatalf("pool imbalance at the end: %d gets, %d releases", gets, rels)
		}
	})
}

// TestArenaQueueOwnsNoStorage replays a committed FuzzDropTailAgainstModel
// input through hop 0 of an arena, on segments from a warm pool: a replay
// allocates nothing, however deep the hop's queue gets, and leaves the pool
// balanced. Drains stand in for Flush, and a re-Configure of the same shape
// for Init (it flushes the hop).
func TestArenaQueueOwnsNoStorage(t *testing.T) {
	limit, ops := readDropTailCorpus(t, "7798add6733aabe9")
	specs := []HopSpec{{Rate: 100 * unit.Mbps, Queue: limit}}
	a := NewHopArena(sim.NewEngine())
	pool, sink := packet.NewPool(), &Sink{}
	high := 0
	replay := func() {
		a.Configure(specs, sink, nil)
		for _, op := range ops {
			q := a.Port(0).q
			switch {
			case op < 160:
				s := pool.Get()
				s.Len = int(op)
				if !a.enqueue(0, s) {
					s.Release()
				}
			case op < 250:
				q.Dequeue().Release() // nil-safe on an empty queue
			case op < 253:
				q.Flush()
			default:
				a.Configure(specs, sink, nil)
			}
			high = max(high, q.Len())
		}
		a.Port(0).q.Flush()
	}
	replay() // warms the pool to the replay's high-water
	if high < 2 {
		t.Fatalf("the corpus input never queued more than %d segments: bad test premise", high)
	}
	if allocs := testing.AllocsPerRun(5, replay); allocs != 0 {
		t.Errorf("a replay through the hop's queue allocates %.1f objects, want 0", allocs)
	}
	if gets, rels := pool.Counters(); gets != rels {
		t.Errorf("pool imbalance after the replays: %d gets, %d releases", gets, rels)
	}
}

// readDropTailCorpus parses a FuzzDropTailAgainstModel corpus file: a
// capacity byte and the operation bytes.
func readDropTailCorpus(t *testing.T, name string) (int, []byte) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDropTailAgainstModel", name))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 3 {
		t.Fatalf("corpus %s has %d lines, want 3", name, len(lines))
	}
	limit, err1 := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "byte("), ")"))
	ops, err2 := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[2], "[]byte("), ")"))
	if err1 != nil || err2 != nil || len(limit) != 1 {
		t.Fatalf("corpus %s: cannot parse %q / %q", name, lines[1], lines[2])
	}
	return int(limit[0]), []byte(ops)
}
