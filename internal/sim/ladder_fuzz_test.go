package sim

import (
	"testing"
	"time"
)

// Operation codes of FuzzLadderAgainstHeap's input. An operation is one byte,
// kind in the low three bits and a small argument in the high five; the
// kinds that take a time span read it from the next two bytes (fuzzSpan).
const (
	fopSchedule    = iota // Schedule at now+span into handle slot arg
	fopScheduleArg        // ScheduleArg at now+span into handle slot arg
	fopBurst              // next byte+1 events from now+span, arg ns apart
	fopReserved           // three reserved seqs at now+span, used out of order
	fopCancel             // Cancel handle slot arg
	fopStep               // Step arg%4+1 times
	fopRunUntil           // RunUntil now+span
	fopResetOrRun         // Reset when arg is even, else Run to empty
)

// fuzzEventLimit bounds the events one input may schedule per engine, so
// every input runs in milliseconds.
const fuzzEventLimit = 1 << 14

// fuzzSpan decodes an offset from two bytes: the top three bits of b0 pick a
// scale — the same instant, nanoseconds (dense buckets, bottom splices),
// sub-millisecond (the direct-sort window), micro- and milliseconds (rung
// windows), seconds (shallow rungs) and hours (the overflow band) — and the
// other thirteen bits a multiple of it.
func fuzzSpan(b0, b1 byte) Duration {
	v := Duration(b0&0x1f)<<8 | Duration(b1)
	switch b0 >> 5 {
	case 0:
		return 0
	case 1:
		return v
	case 2:
		return v * time.Microsecond / 8
	case 3:
		return v * time.Microsecond
	case 4:
		return v * time.Millisecond
	case 5:
		return v * time.Second
	default:
		return v * time.Hour
	}
}

// fuzzSide is one engine of the differential with what it has delivered
// and the handles the input addresses by slot.
type fuzzSide struct {
	e      *Engine
	log    []schedFiring
	slots  [32]Event
	nextID int
	fire   func(id int)
	argFn  func(any)
}

func newFuzzSide(e *Engine) *fuzzSide {
	s := &fuzzSide{e: e}
	// Every fifth event schedules a child at its own instant or the next
	// nanosecond, so same-tick entries splice in behind the drain cursor
	// while a batch runs.
	s.fire = func(id int) {
		s.log = append(s.log, schedFiring{id, s.e.Now()})
		if id%5 == 0 && s.nextID < fuzzEventLimit {
			child := s.nextID
			s.nextID++
			s.e.Schedule(s.after(Duration(id%2)), func() { s.fire(child) })
		}
	}
	s.argFn = func(a any) { s.fire(a.(int)) }
	return s
}

// after returns now+d, saturating at Infinity.
func (s *fuzzSide) after(d Duration) Time {
	at := s.e.Now().Add(d)
	if at < s.e.Now() {
		return Infinity
	}
	return at
}

func (s *fuzzSide) id() int {
	id := s.nextID
	s.nextID++
	return id
}

// apply performs one decoded operation; n is a burst's length.
func (s *fuzzSide) apply(kind, arg, n int, span Duration) {
	slot := &s.slots[arg%len(s.slots)]
	switch kind {
	case fopSchedule:
		id := s.id()
		*slot = s.e.Schedule(s.after(span), func() { s.fire(id) })
	case fopScheduleArg:
		*slot = s.e.ScheduleArg(s.after(span), s.argFn, s.id())
	case fopBurst:
		at := s.after(span)
		for i := 0; i < n && s.nextID < fuzzEventLimit; i++ {
			id := s.id()
			s.slots[(arg+i)%len(s.slots)] = s.e.Schedule(at, func() { s.fire(id) })
			if next := at.Add(Duration(arg)); next >= at {
				at = next
			}
		}
	case fopReserved:
		at := s.after(span)
		s1, s2, s3 := s.e.ReserveSeq(), s.e.ReserveSeq(), s.e.ReserveSeq()
		for i, seq := range []uint64{s3, s1, s2} {
			id := s.id()
			s.slots[(arg+i)%len(s.slots)] = s.e.ScheduleReserved(at, seq, s.argFn, id)
		}
	case fopCancel:
		s.e.Cancel(*slot)
	case fopStep:
		for i := arg%4 + 1; i > 0; i-- {
			s.e.Step()
		}
	case fopRunUntil:
		s.e.RunUntil(s.after(span))
	case fopResetOrRun:
		if arg%2 == 0 {
			s.e.Reset()
		} else {
			s.e.Run()
		}
	}
}

// agree fails t unless the two sides have delivered the same events at the
// same instants, sit at the same clock with the same pending count and
// handle states, and neither has leaked an entry. Firings before from were
// compared already.
func agree(t *testing.T, op, from int, heap, lad *fuzzSide) {
	t.Helper()
	if len(heap.log) != len(lad.log) {
		t.Fatalf("op %d: heap fired %d events, ladder %d", op, len(heap.log), len(lad.log))
	}
	for i := from; i < len(heap.log); i++ {
		if heap.log[i] != lad.log[i] {
			t.Fatalf("op %d: firing %d differs: heap %+v, ladder %+v", op, i, heap.log[i], lad.log[i])
		}
	}
	if heap.e.Now() != lad.e.Now() || heap.e.Pending() != lad.e.Pending() {
		t.Fatalf("op %d: heap at %v with %d pending, ladder at %v with %d",
			op, heap.e.Now(), heap.e.Pending(), lad.e.Now(), lad.e.Pending())
	}
	for i := range heap.slots {
		h, l := heap.slots[i], lad.slots[i]
		if h.Pending() != l.Pending() || h.At() != l.At() {
			t.Fatalf("op %d: handle %d pending=%v at %v on heap, pending=%v at %v on ladder",
				op, i, h.Pending(), h.At(), l.Pending(), l.At())
		}
	}
	if n := heap.e.Leaked(); n != 0 {
		t.Fatalf("op %d: heap leaked %d entries", op, n)
	}
	if n := lad.e.Leaked(); n != 0 {
		t.Fatalf("op %d: ladder leaked %d entries", op, n)
	}
	checkLadder(t, op, lad.e.lad)
}

// checkLadder fails t unless every container of l agrees with its own
// bookkeeping: each bucket list is well linked (the head's prev names the
// tail) and as long as its count, occupancy bits mark exactly the non-empty
// buckets, every entry is tagged with where it sits, and the containers add
// up to l.size. A broken link would otherwise show only as a hang.
func checkLadder(t *testing.T, op int, l *ladder) {
	t.Helper()
	total := len(l.bottom) - l.head + len(l.over)
	for lvl, r := range l.rungs {
		resident := 0
		for s, h := range r.head {
			occupied := r.occ[s>>6]&(1<<(uint(s)&63)) != 0
			if occupied != (h != nil) {
				t.Fatalf("op %d: rung %d bucket %d: occupancy bit %v, head %p", op, lvl, s, occupied, h)
			}
			n, prev := 0, (*event)(nil)
			for ev := h; ev != nil; ev = ev.next {
				if n++; n > int(r.n[s]) {
					t.Fatalf("op %d: rung %d bucket %d holds more than its count %d", op, lvl, s, r.n[s])
				}
				if ev.where != locRung || int(ev.lvl) != lvl || int(ev.bkt) != s {
					t.Fatalf("op %d: entry in rung %d bucket %d tagged %d/%d/%d", op, lvl, s, ev.where, ev.lvl, ev.bkt)
				}
				if prev != nil && ev.prev != prev {
					t.Fatalf("op %d: rung %d bucket %d: broken prev link", op, lvl, s)
				}
				prev = ev
			}
			if n != int(r.n[s]) || (h != nil && h.prev != prev) {
				t.Fatalf("op %d: rung %d bucket %d: %d linked, count %d, tail link ok %v",
					op, lvl, s, n, r.n[s], h == nil || h.prev == prev)
			}
			resident += n
		}
		if resident != r.count {
			t.Fatalf("op %d: rung %d holds %d entries, count %d", op, lvl, resident, r.count)
		}
		total += resident
	}
	if total != l.size {
		t.Fatalf("op %d: containers hold %d entries, size %d", op, total, l.size)
	}
}

// runLadderDifferential decodes ops and applies each to a heap engine and a
// ladder engine, checking after every operation that they agree, then runs
// both to empty. It returns the ladder engine for its counters.
func runLadderDifferential(t *testing.T, ops []byte) *Engine {
	heap, lad := newFuzzSide(heapEngine(t)), newFuzzSide(NewEngine())
	for i := 0; i < len(ops); i++ {
		kind, arg := int(ops[i]&7), int(ops[i]>>3)
		n := 0
		if kind == fopBurst && i+1 < len(ops) {
			i++
			n = int(ops[i]) + 1
		}
		var span Duration
		if kind <= fopReserved || kind == fopRunUntil {
			if i+2 < len(ops) {
				span = fuzzSpan(ops[i+1], ops[i+2])
			}
			i += 2
		}
		from := len(heap.log)
		heap.apply(kind, arg, n, span)
		lad.apply(kind, arg, n, span)
		agree(t, i, from, heap, lad)
	}
	from := len(heap.log)
	heap.e.Run()
	lad.e.Run()
	agree(t, len(ops), from, heap, lad)
	if n := lad.e.Pending(); n != 0 {
		t.Fatalf("%d events pending after Run", n)
	}
	return lad.e
}

// fop encodes one operation for a seed input.
func fop(kind, arg byte, operands ...byte) []byte {
	return append([]byte{kind | arg<<3}, operands...)
}

// fspan encodes a span of v units of the given fuzzSpan scale.
func fspan(scale byte, v uint16) []byte {
	return []byte{scale<<5 | byte(v>>8)&0x1f, byte(v)}
}

// ladderFuzzSeeds are built inputs that between them reach every ladder
// path (TestLadderFuzzSeedsReachEveryPath checks that they do).
func ladderFuzzSeeds() [][]byte {
	join := func(parts ...[]byte) []byte {
		var b []byte
		for _, p := range parts {
			b = append(b, p...)
		}
		return b
	}
	return [][]byte{
		// A handful of near events: direct sorts, splices, a cancel and a
		// reserved triple at a shared instant.
		join(fop(fopSchedule, 0, fspan(1, 10)...), fop(fopScheduleArg, 1, fspan(1, 20)...),
			fop(fopReserved, 2, fspan(1, 15)...), fop(fopCancel, 1), fop(fopStep, 1),
			fop(fopSchedule, 3, fspan(1, 5)...), fop(fopSchedule, 4, fspan(0, 0)...),
			fop(fopRunUntil, 0, fspan(3, 2)...), fop(fopResetOrRun, 1)),
		// A dense cluster under a two-hour outlier: the rebase puts the
		// cluster in one coarse bucket, which sprays down several rungs.
		join(fop(fopSchedule, 0, fspan(6, 2)...), fop(fopBurst, 3, 199), fspan(3, 10),
			fop(fopStep, 3), fop(fopCancel, 5), fop(fopCancel, 9), fop(fopStep, 2),
			fop(fopBurst, 1, 99), fspan(1, 7), fop(fopRunUntil, 0, fspan(4, 1)...),
			fop(fopResetOrRun, 1)),
		// One event opens a 1 ms drain window; a burst inside it overfills
		// the rungless drain list and demotes its far half.
		join(fop(fopSchedule, 0, fspan(3, 1)...), fop(fopStep, 0),
			fop(fopBurst, 5, 119), fspan(2, 100), fop(fopCancel, 7),
			fop(fopStep, 3), fop(fopResetOrRun, 1)),
		// Rungs down to 2-µs buckets under a two-hour outlier; the tail of
		// a deep bucket is canceled, a new entry appended behind the new
		// tail, then the bucket's head and a middle entry canceled.
		join(fop(fopSchedule, 0, fspan(6, 2)...), fop(fopBurst, 31, 59), fspan(4, 1),
			fop(fopStep, 0), fop(fopCancel, 26), fop(fopSchedule, 1, fspan(1, 2000)...),
			fop(fopCancel, 15), fop(fopCancel, 25), fop(fopResetOrRun, 1)),
		// A Reset with rungs, band and drain list all occupied, then the
		// same shape again on the warm engine.
		join(fop(fopSchedule, 0, fspan(6, 1)...), fop(fopBurst, 2, 149), fspan(3, 50),
			fop(fopStep, 1), fop(fopSchedule, 1, fspan(1, 3)...), fop(fopResetOrRun, 0),
			fop(fopSchedule, 0, fspan(6, 1)...), fop(fopBurst, 2, 149), fspan(3, 50),
			fop(fopReserved, 6, fspan(3, 50)...), fop(fopResetOrRun, 1)),
	}
}

// FuzzLadderAgainstHeap drives a heap engine and a ladder engine with the
// same decoded schedule, cancel, reserve, step, run-until and reset
// operations and requires the same firing order, clock, pending count and
// handle states after every operation, with no leaked entry.
func FuzzLadderAgainstHeap(f *testing.F) {
	for _, seed := range ladderFuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1024 {
			ops = ops[:1024]
		}
		runLadderDifferential(t, ops)
	})
}

// TestLadderFuzzSeedsReachEveryPath keeps the fuzz seeds honest: between
// them they sort, spray, rebase and demote, and one sorts with no rung ever
// built, which only the direct sort of a small band does.
func TestLadderFuzzSeedsReachEveryPath(t *testing.T) {
	var total SchedStats
	direct := false
	for _, seed := range ladderFuzzSeeds() {
		st := runLadderDifferential(t, seed).SchedStats()
		total.Sorts += st.Sorts
		total.Sprays += st.Sprays
		total.Rebases += st.Rebases
		total.Demotes += st.Demotes
		direct = direct || (st.Rebases == 0 && st.Sorts > 0)
	}
	if total.Sprays == 0 || total.Rebases == 0 || total.Demotes == 0 || !direct {
		t.Errorf("seeds reach %+v, direct sort %v: want sprays, rebases, demotes and a direct sort",
			total, direct)
	}
}
