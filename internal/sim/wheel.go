package sim

import "time"

// Wheel is a timer wheel that fronts the engine's calendar for the dense
// near-term deadlines a many-flows run generates: thousands of RTO and
// delayed-ACK timers re-armed on every ACK. Wheel-resident timers cost O(1)
// intrusive-list operations to arm, re-arm, and stop — no heap traffic — so
// calendar depth tracks the number of occupied slots plus in-flight packets
// instead of the number of live flows.
//
// Layout: a ring of power-of-two many slots of width gran. Slot k (absolute)
// covers deadlines in the half-open-from-the-left window (k·gran, (k+1)·gran]
// and is flushed by a single calendar event at exactly k·gran. The exclusive
// start matters for ordering: every entry in a flushing slot has a deadline
// strictly after the flush instant, so the flush can hand each entry to the
// calendar at its exact (deadline, reserved-seq) pair and same-instant ties
// still resolve by the sequence numbers the timers reserved when they armed.
// Observable firing order is therefore byte-identical to running every timer
// straight off the heap (pinned by TestWheelMatchesHeapOrdering); the flush
// events themselves are pure bookkeeping with no observable effect.
//
// Deadlines whose slot-flush instant has already passed (they land within the
// current window) and deadlines beyond the wheel's horizon skip the ring and
// go directly to the calendar — the calendar is the wheel's overflow level.
type Wheel struct {
	eng   *Engine
	gran  Duration
	slots []*Timer // per-slot intrusive doubly-linked list heads
	mask  int64    // len(slots)-1; len is a power of two
	count int      // timers currently linked into slots

	flushEv Event
	flushAt Time

	// self-observation (see WheelStats)
	armed   uint64
	direct  uint64
	flushes uint64
}

// DefaultWheelGran is the slot width used by callers that do not have a
// better idea: 8ms comfortably under the 40ms delayed-ACK floor and the
// 200ms minimum RTO, so both timer populations live on the ring.
const DefaultWheelGran = 8 * time.Millisecond

// DefaultWheelSlots spans DefaultWheelGran·512 ≈ 4s of horizon — initial
// RTOs and first-stage backoffs stay on the ring; deep exponential backoff
// overflows to the calendar, where it is rare enough not to matter.
const DefaultWheelSlots = 512

// NewWheel returns a wheel over the engine's calendar. gran is the slot
// width; slots is rounded up to a power of two.
func NewWheel(eng *Engine, gran Duration, slots int) *Wheel {
	if gran <= 0 {
		panic("sim: NewWheel with non-positive granularity")
	}
	if slots < 2 {
		panic("sim: NewWheel with fewer than 2 slots")
	}
	n := 2
	for n < slots {
		n <<= 1
	}
	return &Wheel{eng: eng, gran: gran, slots: make([]*Timer, n), mask: int64(n - 1)}
}

// Resident returns the number of timers currently linked into slots.
func (w *Wheel) Resident() int { return w.count }

// WheelStats is a self-observation snapshot of the wheel's lifetime
// counters (they survive Reset, like the engine's pool counters).
type WheelStats struct {
	Armed    uint64 // arms that landed on the ring
	Direct   uint64 // arms that bypassed the ring (near or past-horizon)
	Flushes  uint64 // slot-flush events executed
	Resident int    // timers on the ring right now
}

// Stats returns a self-observation snapshot.
func (w *Wheel) Stats() WheelStats {
	return WheelStats{Armed: w.armed, Direct: w.direct, Flushes: w.flushes, Resident: w.count}
}

// Reset clears the ring after an Engine.Reset. The engine's reset already
// recycled the flush event's calendar entry (the handle observes the
// generation bump); linked timers are abandoned wholesale — their owners are
// being rebuilt too. Call this whenever the underlying engine is reset.
func (w *Wheel) Reset() {
	if w.count != 0 {
		for i, t := range w.slots {
			for ; t != nil; t = t.wNext {
				// Detach so a stale Stop on a discarded timer is a no-op
				// instead of corrupting the fresh ring.
				t.wSlot = -1
			}
			w.slots[i] = nil
		}
	}
	w.count = 0
	w.flushEv = Event{}
	w.flushAt = 0
}

// arm places an armed timer (deadline t.at, sequence t.seq already reserved)
// onto the ring, or directly onto the calendar when the ring cannot hold it.
// Any previous residency — slot link or calendar entry — is released first,
// so arm is also re-arm.
func (w *Wheel) arm(t *Timer) {
	if t.wSlot >= 0 {
		w.unlink(t)
	}
	if t.ev.Pending() {
		w.eng.Cancel(t.ev)
		t.ev = Event{}
	}
	at := t.at
	// Absolute slot: the slot whose window (s·gran, (s+1)·gran] holds at.
	s := (int64(at) - 1) / int64(w.gran)
	flush := Time(s * int64(w.gran))
	if flush <= w.eng.now || at.Sub(w.eng.now) >= Duration(w.mask)*w.gran {
		// Within the current window (its flush instant is not in the
		// future) or beyond the horizon: the calendar is the overflow.
		t.ev = w.eng.ScheduleReserved(at, t.seq, timerFire, t)
		w.direct++
		return
	}
	idx := int(s & w.mask)
	head := w.slots[idx]
	t.wNext = head
	t.wPrev = nil
	if head != nil {
		head.wPrev = t
	}
	w.slots[idx] = t
	t.wSlot = int32(idx)
	w.count++
	w.armed++
	if !w.flushEv.Pending() || flush < w.flushAt {
		w.eng.Cancel(w.flushEv)
		w.flushAt = flush
		w.flushEv = w.eng.ScheduleArg(flush, wheelFlush, w)
	}
}

// unlink removes a slot-resident timer from the ring in O(1).
func (w *Wheel) unlink(t *Timer) {
	if t.wSlot < 0 {
		return
	}
	if t.wPrev != nil {
		t.wPrev.wNext = t.wNext
	} else {
		w.slots[t.wSlot] = t.wNext
	}
	if t.wNext != nil {
		t.wNext.wPrev = t.wPrev
	}
	t.wNext, t.wPrev = nil, nil
	t.wSlot = -1
	w.count--
}

func wheelFlush(w any) { w.(*Wheel).flush() }

// flush runs at an exact slot boundary k·gran and hands every timer of the
// slot that just became current — deadlines in (k·gran, (k+1)·gran], all
// strictly in the future — to the calendar at its exact deadline and
// reserved sequence number, then re-arms itself at the next occupied slot.
func (w *Wheel) flush() {
	w.flushEv = Event{}
	w.flushes++
	s := int64(w.eng.now) / int64(w.gran)
	idx := int(s & w.mask)
	for t := w.slots[idx]; t != nil; {
		next := t.wNext
		t.wNext, t.wPrev = nil, nil
		t.wSlot = -1
		w.count--
		t.ev = w.eng.ScheduleReserved(t.at, t.seq, timerFire, t)
		t = next
	}
	w.slots[idx] = nil
	if w.count == 0 {
		return
	}
	// Every resident timer lives within the horizon, so scanning one full
	// revolution from the next slot finds the earliest occupied one.
	for i := int64(1); i <= w.mask+1; i++ {
		if w.slots[int((s+i)&w.mask)] != nil {
			w.flushAt = Time((s + i) * int64(w.gran))
			w.flushEv = w.eng.ScheduleArg(w.flushAt, wheelFlush, w)
			return
		}
	}
	panic("sim: wheel resident count out of sync with slots")
}
