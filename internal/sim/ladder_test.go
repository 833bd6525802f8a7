package sim

import (
	"testing"
	"time"
	"unsafe"
)

// schedFiring is one observable delivery: which logical event fired and at
// what instant. Two backends agree iff their firing slices are identical.
type schedFiring struct {
	id int
	at Time
}

// fuzzDelta draws a scheduling offset from a mixture tuned to hit every
// ladder container: same-tick (bottom splice), nanoseconds (dense buckets),
// µs–ms (rung windows), seconds (shallow rungs), and an hour out (overflow
// band / rebase).
func fuzzDelta(rng *RNG) Duration {
	switch rng.Intn(10) {
	case 0:
		return 0
	case 1, 2, 3:
		return Duration(rng.Int63n(1000))
	case 4, 5, 6:
		return Duration(rng.Int63n(int64(time.Millisecond)))
	case 7, 8:
		return Duration(rng.Int63n(int64(time.Second)))
	default:
		return Duration(rng.Int63n(int64(time.Hour)))
	}
}

// heapEngine returns an engine on the binary-heap calendar, the reference
// every ladder differential compares against; it fails the test if the
// engine it built runs on anything else.
func heapEngine(tb testing.TB) *Engine {
	tb.Helper()
	e := NewEngine()
	e.UseLadder(false)
	if b := e.SchedStats().Backend; b != "heap" {
		tb.Fatalf("reference engine runs on the %s calendar, want heap", b)
	}
	return e
}

// runSchedFuzz drives engine e with a deterministic self-scheduling
// workload: every firing may spawn children (through all three Schedule
// entry points), emit a burst of ScheduleReserved events whose sequence
// numbers are used out of reservation order, and cancel a random recent
// handle. All decisions come from one RNG consumed in firing order, so two
// backends that deliver in the same order replay the same workload; any
// ordering divergence shows up in the returned log.
func runSchedFuzz(e *Engine, seed uint64, spawnLimit int) []schedFiring {
	rng := NewRNG(seed)
	var log []schedFiring
	ring := make([]Event, 64)
	nextID := 0

	var fire func(id int)
	argFire := func(a any) { fire(a.(int)) }
	schedule := func(at Time) {
		id := nextID
		nextID++
		var h Event
		switch rng.Intn(3) {
		case 0:
			h = e.Schedule(at, func() { fire(id) })
		case 1:
			h = e.ScheduleArg(at, argFire, id)
		default:
			h = e.ScheduleAfter(at.Sub(e.Now()), func() { fire(id) })
		}
		ring[rng.Intn(len(ring))] = h
	}
	scheduleReserved := func(at Time, seq uint64) {
		id := nextID
		nextID++
		ring[rng.Intn(len(ring))] = e.ScheduleReserved(at, seq, argFire, id)
	}
	fire = func(id int) {
		log = append(log, schedFiring{id, e.Now()})
		if nextID >= spawnLimit {
			return
		}
		for j := rng.Intn(3); j > 0; j-- {
			schedule(e.Now().Add(fuzzDelta(rng)))
		}
		if rng.Intn(10) == 0 {
			// Reserved burst, sequences used in reverse: the firing
			// order at a shared instant must follow reservation order,
			// not scheduling order.
			at := e.Now().Add(fuzzDelta(rng))
			s1, s2, s3 := e.ReserveSeq(), e.ReserveSeq(), e.ReserveSeq()
			scheduleReserved(at, s3)
			scheduleReserved(at, s1)
			scheduleReserved(at, s2)
		}
		if rng.Intn(3) == 0 {
			e.Cancel(ring[rng.Intn(len(ring))])
		}
	}

	// Seed population, then mass-cancel churn before anything runs.
	seeds := make([]Event, 0, 400)
	for i := 0; i < 400; i++ {
		id := nextID
		nextID++
		at := At(Duration(rng.Int63n(int64(2 * time.Second))))
		seeds = append(seeds, e.Schedule(at, func() { fire(id) }))
	}
	for i := 0; i < 300; i++ {
		e.Cancel(seeds[rng.Intn(len(seeds))])
	}
	e.Run()
	return log
}

// TestSchedulerDifferentialFuzz is the ladder's core contract: heap and
// ladder backends presented with an identical randomized schedule/cancel/
// reserve workload (including out-of-order reserved sequences and
// mass-cancel churn) deliver the identical firing sequence, end at the same
// clock, and leak nothing.
func TestSchedulerDifferentialFuzz(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 1905, 31337} {
		const spawnLimit = 4000
		he, le := heapEngine(t), NewEngine()
		heapLog := runSchedFuzz(he, seed, spawnLimit)
		ladLog := runSchedFuzz(le, seed, spawnLimit)
		if len(heapLog) != len(ladLog) {
			t.Fatalf("seed %d: heap fired %d events, ladder %d", seed, len(heapLog), len(ladLog))
		}
		for i := range heapLog {
			if heapLog[i] != ladLog[i] {
				t.Fatalf("seed %d: firing logs diverge at %d: heap %+v, ladder %+v",
					seed, i, heapLog[i], ladLog[i])
			}
		}
		if he.Now() != le.Now() {
			t.Fatalf("seed %d: final clocks differ: heap %v, ladder %v", seed, he.Now(), le.Now())
		}
		hs, ls := he.Stats(), le.Stats()
		if hs.Processed != ls.Processed || hs.Cancelled != ls.Cancelled {
			t.Fatalf("seed %d: stats differ: heap %+v, ladder %+v", seed, hs, ls)
		}
		for name, e := range map[string]*Engine{"heap": he, "ladder": le} {
			if got := e.Leaked(); got != 0 {
				t.Errorf("seed %d: %s leaked %d events", seed, name, got)
			}
			if got := e.Pending(); got != 0 {
				t.Errorf("seed %d: %s still has %d pending", seed, name, got)
			}
		}
	}
}

// TestLadderSameTickOrder floods one instant with more events than the
// spray threshold, scheduled interleaved with same-tick children, and
// checks the batch delivery preserves strict sequence order.
func TestLadderSameTickOrder(t *testing.T) {
	e := NewEngine()
	const n = 500
	var got []int
	at := At(5 * time.Millisecond)
	for i := 0; i < n; i++ {
		i := i
		e.Schedule(at, func() {
			got = append(got, i)
			if i < 50 {
				// Same-tick child: must fire after every already
				// scheduled event at this instant, in seq order.
				j := n + i
				e.Schedule(e.Now(), func() { got = append(got, j) })
			}
		})
	}
	e.Run()
	if len(got) != n+50 {
		t.Fatalf("fired %d events, want %d", len(got), n+50)
	}
	for i, id := range got {
		if id != i {
			t.Fatalf("position %d fired id %d, want %d (seq order violated)", i, id, i)
		}
	}
	if e.Now() != at {
		t.Fatalf("clock %v after same-tick batch, want %v", e.Now(), at)
	}
	if got := e.Leaked(); got != 0 {
		t.Errorf("leaked %d events", got)
	}
}

// TestLadderCancelChurnAndReset: a wide-span population that is mostly
// canceled drains clean, and after Reset the warm pool is reused with no
// fresh allocations of calendar entries.
func TestLadderCancelChurnAndReset(t *testing.T) {
	e := NewEngine()
	rng := NewRNG(99)
	round := func() int {
		fired := 0
		handles := make([]Event, 0, 10000)
		for i := 0; i < 10000; i++ {
			at := At(Duration(rng.Int63n(int64(time.Hour))))
			handles = append(handles, e.Schedule(at, func() { fired++ }))
		}
		rng.Shuffle(len(handles), func(i, j int) { handles[i], handles[j] = handles[j], handles[i] })
		for _, h := range handles[:9000] {
			e.Cancel(h)
		}
		e.Run()
		if got := e.Leaked(); got != 0 {
			t.Fatalf("leaked %d events", got)
		}
		if got := e.Pending(); got != 0 {
			t.Fatalf("%d events still pending", got)
		}
		return fired
	}
	if fired := round(); fired != 1000 {
		t.Fatalf("fired %d events, want 1000", fired)
	}
	created := e.PoolStats().Created
	e.Reset()
	if fired := round(); fired != 1000 {
		t.Fatalf("second round fired %d events, want 1000", fired)
	}
	if got := e.PoolStats().Created; got != created {
		t.Errorf("second round allocated %d fresh entries; pool should be warm", got-created)
	}
}

// TestLadderFarFuture: deadlines near the top of the time range must not
// overflow the bucket arithmetic, must stay invisible to earlier deadlines,
// and must still drain.
func TestLadderFarFuture(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(Infinity-1, func() { got = append(got, 3) })
	e.Schedule(1<<62, func() { got = append(got, 2) })
	e.Schedule(At(time.Second), func() { got = append(got, 1) })
	e.RunUntil(At(2 * time.Second))
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("after near deadline got %v, want [1]", got)
	}
	if e.Now() != At(2*time.Second) {
		t.Fatalf("clock %v, want deadline", e.Now())
	}
	e.Run()
	if len(got) != 3 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("after drain got %v, want [1 2 3]", got)
	}
	if got := e.Leaked(); got != 0 {
		t.Errorf("leaked %d events", got)
	}
}

// TestLadderRunUntilDeadline: deadline semantics (events exactly at the
// deadline run; the clock advances to the deadline) match the heap across
// stepped windows that land on and between event times.
func TestLadderRunUntilDeadline(t *testing.T) {
	build := func(e *Engine) *[]schedFiring {
		log := &[]schedFiring{}
		for i, d := range []Duration{0, 1, 999, 1000, 1500, 2000, 2001, 5000} {
			i, at := i, At(d)
			e.Schedule(at, func() { *log = append(*log, schedFiring{i, e.Now()}) })
		}
		return log
	}
	he, le := heapEngine(t), NewEngine()
	hlog, llog := build(he), build(le)
	for _, d := range []Duration{500, 1000, 1000, 1499, 2000, 2001, 10000} {
		he.RunUntil(At(d))
		le.RunUntil(At(d))
		if he.Now() != le.Now() {
			t.Fatalf("clocks diverge after deadline %d: heap %v, ladder %v", d, he.Now(), le.Now())
		}
		if len(*hlog) != len(*llog) {
			t.Fatalf("deadline %d: heap fired %d, ladder %d", d, len(*hlog), len(*llog))
		}
	}
	for i := range *hlog {
		if (*hlog)[i] != (*llog)[i] {
			t.Fatalf("logs diverge at %d: heap %+v, ladder %+v", i, (*hlog)[i], (*llog)[i])
		}
	}
}

// TestUseLadderGuards: every engine starts on the ladder, backend switching
// is only legal on an idle, empty engine, and the switch is observable.
func TestUseLadderGuards(t *testing.T) {
	e := NewEngine()
	if b := e.SchedStats().Backend; b != "ladder" {
		t.Fatalf("NewEngine runs on the %s calendar, want ladder", b)
	}
	e.UseLadder(false)
	if b := e.SchedStats().Backend; b != "heap" {
		t.Fatalf("UseLadder(false) left the engine on the %s calendar", b)
	}
	e.UseLadder(false) // idempotent
	e.Schedule(At(time.Millisecond), func() {})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("UseLadder with pending events did not panic")
			}
		}()
		e.UseLadder(true)
	}()
	e.Run()
	e.UseLadder(true)
	if b := e.SchedStats().Backend; b != "ladder" {
		t.Fatalf("UseLadder(true) left the engine on the %s calendar", b)
	}
}

// TestLadderSchedStats: the self-observation counters move when their
// mechanisms do — lazy sorts on every refill, sprays on dense buckets,
// rebases when the overflow band is poured into a fresh rung.
func TestLadderSchedStats(t *testing.T) {
	e := NewEngine()
	// A 2h outlier forces the first rebase onto a coarse granularity, so
	// the µs-wide cluster lands dense in one bucket and must spray.
	e.Schedule(At(2*time.Hour), func() {})
	base := At(10 * time.Millisecond)
	for i := 0; i < 200; i++ {
		i := i
		e.Schedule(base.Add(Duration(5*i)), func() {
			if i == 0 {
				// A batch beyond the first rebase's rung horizon and
				// wider than the direct-sort threshold: lands in the
				// overflow band and forces a second rebase at drain.
				for j := 0; j < 2*ladderSprayThresh; j++ {
					e.Schedule(At(1000*time.Hour).Add(Duration(j)*Duration(time.Minute)), func() {})
				}
			}
		})
	}
	e.Run()
	st := e.SchedStats()
	if st.Backend != "ladder" {
		t.Fatalf("backend %q, want ladder", st.Backend)
	}
	if st.Sorts == 0 || st.Sprays == 0 || st.Rebases < 2 {
		t.Fatalf("stats %+v: want sorts > 0, sprays > 0, rebases >= 2", st)
	}
	if st.MaxSize < 200 || st.MaxRungs < 2 {
		t.Fatalf("stats %+v: want max size >= 200 and spray depth >= 2", st)
	}
	if hs := heapEngine(t).SchedStats(); hs.Sorts != 0 || hs.MaxSize != 0 {
		t.Fatalf("idle heap engine reports %+v", hs)
	}
}

// TestLadderMaxBottomCountsHeadSlotInserts: an insert into a slot the head
// cursor vacated grows the live drain list as much as an append does, and
// SchedStats.MaxBottom must see it. Two steps leave two vacated slots in
// front of 30; the last two inserts fill them, by the O(1) front insert
// twice or by a front insert and the shorter-prefix splice, for three live
// entries.
func TestLadderMaxBottomCountsHeadSlotInserts(t *testing.T) {
	for _, last := range []Time{24, 27} {
		e := NewEngine()
		e.Schedule(10, func() {})
		e.Schedule(20, func() {})
		e.Step()
		e.Schedule(30, func() {})
		e.Step()
		e.Schedule(25, func() {})
		e.Schedule(last, func() {})
		if live := len(e.lad.bottom) - e.lad.head; live != 3 || e.lad.head != 0 {
			t.Fatalf("last insert %v: %d live entries from slot %d, want 3 from slot 0 — bad test premise",
				last, live, e.lad.head)
		}
		if got := e.SchedStats().MaxBottom; got != 3 {
			t.Errorf("last insert %v: MaxBottom = %d with three entries in the drain list", last, got)
		}
	}
}

// TestCalendarEntrySizeClass pins what the calendar stores. Go rounds each
// allocation up to a size class (…, 64, 80, 96, 112 B): event was 88 B with
// its list links, in the 96-B class it held with the debug label it
// replaced, so neither backend pays for the ladder's lists; with one
// callback form instead of two it is 80 B, the 80-B class. A rung is two
// 256-entry arrays (list heads and counts) and a bitmap, about 3.1 KB; its
// slice buckets were 6,208 B plus backing arrays that kept their peak
// capacity.
func TestCalendarEntrySizeClass(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got > 80 {
		t.Errorf("event is %d B, over the 80-B size class", got)
	}
	if got := unsafe.Sizeof(rung{}); got > 3200 {
		t.Errorf("rung is %d B, budget 3,200", got)
	}
}
