package sim

import (
	"fmt"
)

// event is a pooled calendar entry. Entries are owned by the Engine: they
// are recycled onto a free list the moment they fire or are canceled, so a
// steady-state simulation schedules millions of events with a handful of
// allocations. External code never sees *event; it holds an Event handle.
//
// The layout is 80 bytes, Go's 80-byte size class; a field that crosses it
// costs every pending event 16 bytes (TestCalendarEntrySizeClass).
type event struct {
	at    Time
	seq   uint64 // FIFO tie-break among events at the same instant
	next  *event // ladder only: rung bucket list links (see rung)
	prev  *event
	index int32     // position in its container, -1 once removed
	bkt   int32     // ladder only: bucket slot within the rung
	lvl   int16     // ladder only: rung index
	where int8      // ladder only: container tag (locBottom/locRung/locOver)
	gen   uint64    // bumped on recycle; stale handles compare unequal
	fn    func(any) // runs as fn(arg): a reused func, the per-event state in arg
	arg   any
}

// Event is a handle to a scheduled callback, returned by the Engine's
// Schedule methods. It is a small value, cheap to copy and store. Because
// the underlying calendar entries are pooled, a handle goes stale (Pending
// reports false, Cancel is a no-op) as soon as its event fires or is
// canceled — it can never alias a recycled entry.
type Event struct {
	ev  *event
	gen uint64
}

// At returns the instant the event is scheduled for (zero for a stale or
// zero handle).
func (h Event) At() Time {
	if !h.Pending() {
		return 0
	}
	return h.ev.at
}

// Pending reports whether the event is still waiting to fire.
func (h Event) Pending() bool {
	return h.ev != nil && h.ev.gen == h.gen && h.ev.index >= 0
}

// Engine is a discrete-event simulator. It is not safe for concurrent use;
// a simulation is a single logical thread of control in virtual time.
type Engine struct {
	now       Time
	queue     []*event // binary min-heap ordered by (time, sequence)
	lad       *ladder  // ladder calendar; non-nil when it is the backend
	wheel     *Wheel   // the timer wheel over this calendar (NewWheel), if any
	free      []*event // recycled entries awaiting reuse
	seq       uint64
	processed uint64
	running   bool
	stopped   bool

	// pool accounting (see PoolStats)
	created  uint64
	reused   uint64
	recycled uint64

	// self-observation (see Stats)
	cancelled uint64
	heapMax   int
}

// NewEngine returns an engine with the clock at the epoch, backed by the
// ladder calendar.
func NewEngine() *Engine {
	e := &Engine{}
	e.UseLadder(true)
	return e
}

// UseLadder switches the calendar backend: the ladder queue (true, every
// engine's default) or the binary heap (false), the reference the ladder is
// tested against. Both deliver events in identical (at, seq) order; the
// ladder amortizes to O(1) per event on workloads with event-time locality.
// Switching with events pending or a run active is a logic error and panics.
func (e *Engine) UseLadder(on bool) {
	if e.running {
		panic("sim: UseLadder inside Run")
	}
	if e.Pending() != 0 {
		panic("sim: UseLadder with events pending")
	}
	switch {
	case on && e.lad == nil:
		e.lad = &ladder{maxSize: e.heapMax}
	case !on && e.lad != nil:
		e.heapMax = e.lad.maxSize
		e.lad = nil
	}
}

// Reset returns the engine to the epoch for a fresh run while keeping its
// event pool warm: every pending entry is canceled and recycled (stale
// handles observe the generation bump, exactly as with Cancel), the clock
// and sequence counter rewind to zero, and the freed calendar and free-list
// capacity carry over. A campaign worker resets one engine per replicate
// instead of allocating a new one, so steady-state sweeps reuse the same
// entries run after run. A discarded entry whose argument has a Release
// method (a pooled segment waiting on a deferred delivery) gets it called:
// the delivery will never run, so nothing else can return the resource. A
// component that passes itself as the argument therefore has no Release
// method. Resetting mid-run (from inside an event) is a logic error and
// panics.
func (e *Engine) Reset() {
	if e.running {
		panic("sim: Reset inside Run")
	}
	if e.lad != nil {
		e.lad.drain(e.discard)
	} else {
		for i, ev := range e.queue {
			ev.index = -1
			e.discard(ev)
			e.queue[i] = nil
		}
		e.queue = e.queue[:0]
	}
	e.now = 0
	e.seq = 0
	e.processed = 0
	e.stopped = false
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events waiting in the calendar.
func (e *Engine) Pending() int {
	if e.lad != nil {
		return e.lad.size
	}
	return len(e.queue)
}

// PoolStats reports the event pool's counters, for leak checks in tests.
type PoolStats struct {
	Created  uint64 // entries ever allocated
	Reused   uint64 // schedules served from the free list
	Recycled uint64 // entries returned to the free list (fired or canceled)
	Free     int    // entries currently on the free list
}

// PoolStats returns a snapshot of the event-pool counters.
func (e *Engine) PoolStats() PoolStats {
	return PoolStats{Created: e.created, Reused: e.reused, Recycled: e.recycled, Free: len(e.free)}
}

// EngineStats is a self-observation snapshot of the engine: lifetime event
// and pool counters plus the calendar's high-water mark. Like the pool
// counters, the lifetime totals survive Reset — a campaign worker's engine
// accumulates across replicates, which is exactly what self-metrics want.
type EngineStats struct {
	Processed     uint64 // events executed (rewinds on Reset, like Processed())
	Cancelled     uint64 // events removed via Cancel (lifetime)
	HeapHighWater int    // largest calendar size ever observed (lifetime)
	Pending       int    // events currently waiting
	Pool          PoolStats
}

// Stats returns a self-observation snapshot.
func (e *Engine) Stats() EngineStats {
	hw := e.heapMax
	if e.lad != nil {
		hw = e.lad.maxSize
	}
	return EngineStats{
		Processed:     e.processed,
		Cancelled:     e.cancelled,
		HeapHighWater: hw,
		Pending:       e.Pending(),
		Pool:          e.PoolStats(),
	}
}

// SchedStats reports the ladder calendar's self-observation counters.
// Like the pool counters, they are lifetime totals that survive Reset.
// With the heap backend only Backend and MaxSize are meaningful.
type SchedStats struct {
	Backend   string // "heap" or "ladder"
	Sorts     uint64 // buckets lazily sorted into the bottom drain list
	Sprays    uint64 // dense buckets redistributed into a finer rung
	Rebases   uint64 // overflow-band redistributions (bucket resizes)
	Demotes   uint64 // oversized drain lists split back to the overflow band
	MaxRungs  int    // deepest rung stack observed (spray depth)
	MaxBottom int    // largest live drain list
	MaxSize   int    // calendar high water (HeapHighWater's counterpart)
}

// SchedStats returns a snapshot of the scheduler counters.
func (e *Engine) SchedStats() SchedStats {
	if l := e.lad; l != nil {
		return SchedStats{
			Backend:   "ladder",
			Sorts:     l.sorts,
			Sprays:    l.sprays,
			Rebases:   l.rebases,
			Demotes:   l.demotes,
			MaxRungs:  l.maxRungs,
			MaxBottom: l.maxBottom,
			MaxSize:   l.maxSize,
		}
	}
	return SchedStats{Backend: "heap", MaxSize: e.heapMax}
}

// Leaked returns the number of issued events that are neither pending nor
// recycled. Outside of an executing callback it must be zero: every
// scheduled event either fires or is canceled, and both paths recycle.
func (e *Engine) Leaked() int {
	issued := e.created + e.reused
	return int(issued-e.recycled) - e.Pending()
}

// ReserveSeq allocates and returns the next FIFO tie-break sequence number
// without scheduling anything. A component that admits work now but arms the
// calendar entry later (a delay line keeping one armed event for a whole
// FIFO of deliveries, a lazily re-armed timer) reserves the number at
// admission and passes it to ScheduleReserved at arming time; events at the
// same instant then fire in exactly the order immediate scheduling would
// have produced.
func (e *Engine) ReserveSeq() uint64 {
	e.seq++
	return e.seq
}

// ScheduleReserved is ScheduleArg with a caller-reserved sequence number:
// fn(arg) runs at instant at, ordered among same-instant events by seq
// (which must come from ReserveSeq) instead of by scheduling time.
func (e *Engine) ScheduleReserved(at Time, seq uint64, fn func(any), arg any) Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule in the past: at %v, now %v", at, e.now))
	}
	if fn == nil {
		panic("sim: schedule with nil func")
	}
	if seq == 0 || seq > e.seq {
		panic("sim: ScheduleReserved with an unreserved sequence number")
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		e.reused++
	} else {
		ev = &event{}
		e.created++
	}
	ev.at, ev.seq, ev.fn, ev.arg = at, seq, fn, arg
	e.push(ev)
	return Event{ev: ev, gen: ev.gen}
}

// push places a freshly issued entry in the active calendar backend.
func (e *Engine) push(ev *event) {
	if l := e.lad; l != nil {
		l.size++
		if l.size > l.maxSize {
			l.maxSize = l.size
		}
		if ev.at < l.botEnd {
			l.insertBottom(ev)
		} else {
			l.insertHigh(ev)
		}
	} else {
		e.heapPush(ev)
	}
}

// discard recycles an entry Reset removed unfired, releasing an argument
// that owns a pooled resource.
func (e *Engine) discard(ev *event) {
	if r, ok := ev.arg.(interface{ Release() }); ok {
		r.Release()
	}
	e.recycle(ev)
}

// recycle returns a popped (index == -1) entry to the free list.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.arg = nil
	e.recycled++
	e.free = append(e.free, ev)
}

// Schedule arranges for fn to run at instant at, as ScheduleArg with fn for
// the argument. Scheduling in the past panics: it is always a logic error in
// a discrete-event model.
func (e *Engine) Schedule(at Time, fn func()) Event {
	if fn == nil {
		panic("sim: schedule with nil func")
	}
	return e.ScheduleArg(at, callFunc, fn)
}

func callFunc(fn any) { fn.(func())() }

// ScheduleAfter arranges for fn to run d after the current instant.
// A negative d is treated as zero.
func (e *Engine) ScheduleAfter(d Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return e.Schedule(e.now.Add(d), fn)
}

// ScheduleArg arranges for fn(arg) to run at instant at. Every component
// schedules this way, a package-level fn with itself as arg (see
// netem.Port), so no event needs a closure.
func (e *Engine) ScheduleArg(at Time, fn func(any), arg any) Event {
	return e.ScheduleReserved(at, e.ReserveSeq(), fn, arg)
}

// ScheduleArgAfter is ScheduleArg relative to the current instant.
// A negative d is treated as zero.
func (e *Engine) ScheduleArgAfter(d Duration, fn func(any), arg any) Event {
	if d < 0 {
		d = 0
	}
	return e.ScheduleArg(e.now.Add(d), fn, arg)
}

// Cancel removes a pending event from the calendar and recycles its entry
// eagerly (no tombstones linger in the heap). Canceling a zero, stale,
// already-fired or already-canceled handle is a no-op.
func (e *Engine) Cancel(h Event) {
	if !h.Pending() {
		return
	}
	if e.lad != nil {
		e.lad.remove(h.ev)
	} else {
		e.heapRemove(int(h.ev.index))
	}
	e.recycle(h.ev)
	e.cancelled++
}

// Step executes the single earliest pending event and returns true, or
// returns false if the calendar is empty.
func (e *Engine) Step() bool {
	var ev *event
	if l := e.lad; l != nil {
		if len(l.bottom) == 0 && !l.refill() {
			return false
		}
		ev = l.popHead()
	} else {
		if len(e.queue) == 0 {
			return false
		}
		ev = e.heapPop()
	}
	e.now = ev.at
	e.processed++
	fn, arg := ev.fn, ev.arg
	e.recycle(ev)
	fn(arg)
	return true
}

// Run executes events until the calendar is empty or Stop is called.
func (e *Engine) Run() {
	e.run(Infinity)
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to the deadline (if it is in the future). Events scheduled exactly
// at the deadline do run.
func (e *Engine) RunUntil(deadline Time) {
	e.run(deadline)
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
	e.stopped = false
}

// RunFor executes events for a span of virtual time from the current
// instant, then advances the clock to the end of the span.
func (e *Engine) RunFor(d Duration) {
	e.RunUntil(e.now.Add(d))
}

func (e *Engine) run(deadline Time) {
	if e.running {
		panic("sim: engine re-entered (Run called from inside an event)")
	}
	e.running = true
	defer func() { e.running = false }()
	e.stopped = false
	if e.lad != nil {
		e.runLadder(deadline)
		return
	}
	for len(e.queue) > 0 && !e.stopped {
		if e.queue[0].at > deadline {
			return
		}
		e.Step()
	}
}

// runLadder is the ladder backend's event loop. The bottom drain list is
// sorted, so all events of one instant sit contiguously at its head: the
// inner loop batches them, checking the deadline and storing the clock once
// per distinct timestamp instead of once per event. Same-tick events
// scheduled by a callback splice in just behind the cursor (their reserved
// seq is the largest at that instant) and are picked up by the same batch.
func (e *Engine) runLadder(deadline Time) {
	l := e.lad
	for !e.stopped {
		if len(l.bottom) == 0 && !l.refill() {
			return
		}
		t := l.bottom[l.head].at
		if t > deadline {
			return
		}
		e.now = t
		for {
			ev := l.popHead()
			e.processed++
			fn, arg := ev.fn, ev.arg
			e.recycle(ev)
			fn(arg)
			if e.stopped {
				return
			}
			if len(l.bottom) == 0 || l.bottom[l.head].at != t {
				break
			}
		}
	}
}

// Stop makes the innermost Run/RunUntil return after the current event
// completes. The calendar is left intact so the run may be resumed.
func (e *Engine) Stop() { e.stopped = true }

// --- calendar heap (hand-rolled: no interface dispatch on the hot path) ---

func (e *Engine) less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) heapPush(ev *event) {
	ev.index = int32(len(e.queue))
	e.queue = append(e.queue, ev)
	if len(e.queue) > e.heapMax {
		e.heapMax = len(e.queue)
	}
	e.siftUp(len(e.queue) - 1)
}

func (e *Engine) heapPop() *event {
	q := e.queue
	ev := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[0].index = 0
	q[n] = nil
	e.queue = q[:n]
	if n > 0 {
		e.siftDown(0)
	}
	ev.index = -1
	return ev
}

func (e *Engine) heapRemove(i int) {
	q := e.queue
	n := len(q) - 1
	ev := q[i]
	if i != n {
		q[i] = q[n]
		q[i].index = int32(i)
	}
	q[n] = nil
	e.queue = q[:n]
	if i != n {
		if !e.siftDown(i) {
			e.siftUp(i)
		}
	}
	ev.index = -1
}

func (e *Engine) siftUp(i int) {
	q := e.queue
	ev := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(ev, q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].index = int32(i)
		i = parent
	}
	q[i] = ev
	ev.index = int32(i)
}

// siftDown restores the heap below i; it reports whether anything moved.
func (e *Engine) siftDown(i int) bool {
	q := e.queue
	n := len(q)
	ev := q[i]
	start := i
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && e.less(q[r], q[child]) {
			child = r
		}
		if !e.less(q[child], ev) {
			break
		}
		q[i] = q[child]
		q[i].index = int32(i)
		i = child
	}
	q[i] = ev
	ev.index = int32(i)
	return i != start
}
