package sim

// Timer is a resettable one-shot timer, the shape TCP retransmission timers
// need: arm, re-arm (which supersedes the previous deadline), and stop.
// The hook is fixed at initialization; what varies is the deadline.
//
// Re-arming is lazy when the deadline only moves later (the common case —
// every ACK pushes the RTO forward): the timer records the new target and
// leaves the already-scheduled entry in the calendar; when that stale entry
// fires, the timer silently re-schedules at the real deadline instead of
// running the callback. A TCP flow re-arms once per ACK but expires once
// per RTO, so this converts two heap operations per ACK into one spurious
// wake per RTO interval. Observable ordering is EXACTLY that of eager
// re-scheduling: every Arm reserves the engine sequence number an eager
// Schedule would have consumed, and the entry that finally fires at the
// deadline carries the last reserved number, so same-instant ties resolve
// identically (see TestLazyTimerMatchesEagerOrdering).
type Timer struct {
	eng  *Engine
	hook Hook
	ev   Event
	at   Time   // target deadline, meaningful while armed
	seq  uint64 // sequence number reserved by the latest Arm

	// Wheel-backed mode (see Wheel): when onWheel is set, Arm and Stop
	// route through the engine's wheel's O(1) slot lists instead of the
	// calendar heap. wNext/wPrev/wSlot are the intrusive slot-list node,
	// owned by the wheel while wSlot >= 0.
	wNext, wPrev *Timer
	wSlot        int32

	armed   bool // after wSlot, in its word's padding
	onWheel bool
}

// Hook is what a Timer runs when it expires and a Ticker on every tick: the
// owner under a method set of its own (see tcp.Sender's RTO), so no callback
// is bound. The calendar entry carries the timer, and the timer its owner.
type Hook interface{ Fire() }

// funcHook adapts a func(), which converts to an interface without allocating.
type funcHook func()

func (f funcHook) Fire() { f() }

// NewTimer returns a stopped timer that will invoke fn when it expires.
func NewTimer(eng *Engine, fn func()) *Timer {
	t := new(Timer)
	t.Init(eng, nil, fn)
	return t
}

// NewWheelTimer returns a stopped timer whose deadlines are managed by the
// wheel. The Arm/Stop/Deadline API and the observable firing order are
// identical to a plain timer on the same engine; only the bookkeeping cost
// differs.
func NewWheelTimer(w *Wheel, fn func()) *Timer {
	t := new(Timer)
	t.Init(w.eng, w, fn)
	return t
}

// Init is InitHook for a func.
func (t *Timer) Init(eng *Engine, w *Wheel, fn func()) {
	if fn == nil {
		panic("sim: Timer.Init with nil func")
	}
	t.InitHook(eng, w, funcHook(fn))
}

// InitHook (re)initializes a Timer value in place, the allocation-free
// equivalent of NewTimer for timers embedded by value in a larger per-flow
// struct. w may be nil for a plain heap-backed timer; otherwise it must be
// eng's wheel. Whatever entry a used timer's old deadline held must already
// be gone (engine or wheel reset).
func (t *Timer) InitHook(eng *Engine, w *Wheel, h Hook) {
	if h == nil {
		panic("sim: timer with nil hook")
	}
	if w != nil && w != eng.wheel {
		panic("sim: timer on a wheel of another engine")
	}
	*t = Timer{eng: eng, hook: h, wSlot: -1, onWheel: w != nil}
}

// Arm (re)schedules the timer to fire d from now, superseding any earlier
// deadline. A negative d is treated as zero.
func (t *Timer) Arm(d Duration) {
	if d < 0 {
		d = 0
	}
	t.ArmAt(t.eng.Now().Add(d))
}

// ArmAt (re)schedules the timer to fire at the given instant.
func (t *Timer) ArmAt(at Time) {
	t.at = at
	t.armed = true
	t.seq = t.eng.ReserveSeq()
	if t.onWheel {
		// Wheel mode: relocation is O(1) on the ring, so re-arm eagerly.
		// The entry that finally fires still carries this reserved
		// number, so ordering matches the heap path exactly.
		t.eng.wheel.arm(t)
		return
	}
	if t.ev.Pending() && t.ev.At() < at {
		// Deadline moved later: keep the stale entry; fire() will
		// re-schedule at the real deadline with the reserved number.
		return
	}
	t.eng.Cancel(t.ev)
	t.ev = t.eng.ScheduleReserved(at, t.seq, timerFire, t)
}

// Stop cancels the pending expiry, if any.
func (t *Timer) Stop() {
	t.armed = false
	if t.onWheel && t.wSlot >= 0 {
		t.eng.wheel.unlink(t)
	}
	t.eng.Cancel(t.ev)
	t.ev = Event{}
}

// Armed reports whether the timer has a pending expiry.
func (t *Timer) Armed() bool { return t.armed }

// Deadline returns the pending expiry instant, or Infinity if stopped.
func (t *Timer) Deadline() Time {
	if !t.armed {
		return Infinity
	}
	return t.at
}

func timerFire(t any) { t.(*Timer).fire() }

func (t *Timer) fire() {
	t.ev = Event{}
	if !t.armed {
		return
	}
	if t.at > t.eng.Now() {
		// Stale wake: the deadline moved on since this entry was
		// scheduled. Chase it with the latest reserved number.
		t.ev = t.eng.ScheduleReserved(t.at, t.seq, timerFire, t)
		return
	}
	t.armed = false
	t.hook.Fire()
}

// Ticker runs a hook at a fixed period, starting one period after Start. It
// is the clock for periodic controllers (the PID loop) and for trace
// sampling.
type Ticker struct {
	eng    *Engine
	hook   Hook
	period Duration
	ev     Event
}

// NewTicker returns a stopped ticker with the given period and callback.
func NewTicker(eng *Engine, period Duration, fn func()) *Ticker {
	if fn == nil {
		panic("sim: ticker with nil func")
	}
	t := new(Ticker)
	t.InitHook(eng, period, funcHook(fn))
	return t
}

// InitHook (re)initializes a Ticker value in place as a stopped ticker.
func (t *Ticker) InitHook(eng *Engine, period Duration, h Hook) {
	if period <= 0 {
		panic("sim: ticker with non-positive period")
	}
	if h == nil {
		panic("sim: ticker with nil hook")
	}
	*t = Ticker{eng: eng, hook: h, period: period}
}

// Start begins ticking; the first tick is one period from now.
// Starting a started ticker restarts its phase.
func (t *Ticker) Start() {
	t.Stop()
	t.ev = t.eng.ScheduleArgAfter(t.period, tickerTick, t)
}

// Stop cancels future ticks.
func (t *Ticker) Stop() {
	t.eng.Cancel(t.ev)
	t.ev = Event{}
}

// Running reports whether the ticker is active.
func (t *Ticker) Running() bool { return t.ev.Pending() }

func tickerTick(t any) { t.(*Ticker).tick() }

func (t *Ticker) tick() {
	t.ev = t.eng.ScheduleArgAfter(t.period, tickerTick, t)
	t.hook.Fire()
}
