package core

import (
	"math"
	"testing"
	"time"

	"rsstcp/internal/cc"
	"rsstcp/internal/pid"
	"rsstcp/internal/sim"
)

// fakeSensor is a controllable IFQ occupancy.
type fakeSensor struct {
	len, cap int
}

func (f *fakeSensor) Len() int      { return f.len }
func (f *fakeSensor) Capacity() int { return f.cap }

// fakeWindow mirrors the cc test double.
type fakeWindow struct {
	mss      int
	cwnd     int64
	ssthresh int64
}

func (f *fakeWindow) MSS() int               { return f.mss }
func (f *fakeWindow) Cwnd() int64            { return f.cwnd }
func (f *fakeWindow) SetCwnd(b int64)        { f.cwnd = b }
func (f *fakeWindow) Ssthresh() int64        { return f.ssthresh }
func (f *fakeWindow) SetSsthresh(b int64)    { f.ssthresh = b }
func (f *fakeWindow) FlightSize() int64      { return 0 }
func (f *fakeWindow) SRTT() time.Duration    { return 60 * time.Millisecond }
func (f *fakeWindow) LastRTT() time.Duration { return 60 * time.Millisecond }
func (f *fakeWindow) Now() sim.Time          { return 0 }

func newRSS(t *testing.T, eng *sim.Engine, sensor QueueSensor, cfg Config) *RestrictedSlowStart {
	t.Helper()
	cfg.Sensor = sensor
	r, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func slowStartWindow() *fakeWindow {
	return &fakeWindow{mss: 1000, cwnd: 2000, ssthresh: 1 << 40}
}

func TestNewValidation(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := New(eng, Config{}); err == nil {
		t.Error("nil sensor accepted")
	}
	if _, err := New(eng, Config{Sensor: &fakeSensor{cap: 0}}); err == nil {
		t.Error("zero-capacity sensor accepted")
	}
}

// TestAlphaForHugeTick: the EWMA coefficient of a tick near the largest
// duration. tau+dt used to wrap negative in integer arithmetic, so the
// derivative filter's alpha read below 0 and Init refused a config that
// Config.Validate had accepted. Below 2⁵³ ns the coefficient is the one the
// integer sum gives, bit for bit.
func TestAlphaForHugeTick(t *testing.T) {
	for _, tau := range []time.Duration{10 * time.Millisecond, 15 * time.Millisecond} {
		for _, dt := range []time.Duration{math.MaxInt64, math.MaxInt64 - tau + 1, 1 << 62} {
			if a := alphaFor(tau, dt); !(a >= 0 && a < 1) {
				t.Errorf("alphaFor(%v, %v) = %v, want it in [0, 1)", tau, dt, a)
			}
		}
		for _, dt := range []time.Duration{1, 5 * time.Millisecond, time.Hour, 1<<53 - tau} {
			if a, want := alphaFor(tau, dt), float64(tau)/float64(tau+dt); a != want {
				t.Errorf("alphaFor(%v, %v) = %v, want %v", tau, dt, a, want)
			}
		}
	}
	if _, err := New(sim.NewEngine(), Config{Sensor: &fakeSensor{cap: 100}, Tick: math.MaxInt64}); err != nil {
		t.Errorf("a tick of %v refused: %v", time.Duration(math.MaxInt64), err)
	}
}

func TestSetpointIs90PercentOfCapacity(t *testing.T) {
	eng := sim.NewEngine()
	r := newRSS(t, eng, &fakeSensor{cap: 100}, Config{})
	if r.Setpoint() != 90 {
		t.Errorf("setpoint = %v, want 90 (paper: 90%% of max IFQ)", r.Setpoint())
	}
	r2 := newRSS(t, eng, &fakeSensor{cap: 200}, Config{SetpointFraction: 0.5})
	if r2.Setpoint() != 100 {
		t.Errorf("setpoint = %v, want 100", r2.Setpoint())
	}
}

// TestNaNSetpointFallsToDefault: a NaN set-point fraction takes the default
// like any other out-of-range value, instead of a NaN set point that
// throttles every tick, and a NaN gain is an error.
func TestNaNSetpointFallsToDefault(t *testing.T) {
	eng := sim.NewEngine()
	r := newRSS(t, eng, &fakeSensor{cap: 100}, Config{SetpointFraction: math.NaN()})
	if r.Setpoint() != 90 {
		t.Errorf("setpoint = %v, want the default 90", r.Setpoint())
	}
	cfg := Config{Sensor: &fakeSensor{cap: 100}, Gains: pid.Gains{Kp: math.NaN()}}
	if _, err := New(eng, cfg); err == nil {
		t.Error("NaN Kp accepted")
	}
}

func TestDefaultGainsAreThePaperRule(t *testing.T) {
	eng := sim.NewEngine()
	r := newRSS(t, eng, &fakeSensor{cap: 100}, Config{})
	want := pid.PaperGains(DefaultCritical)
	if r.Gains() != want {
		t.Errorf("gains = %v, want paper defaults %v", r.Gains(), want)
	}
}

func TestNoGrowthWithoutBudget(t *testing.T) {
	eng := sim.NewEngine()
	r := newRSS(t, eng, &fakeSensor{cap: 100}, Config{})
	w := slowStartWindow()
	r.Reset(w)
	// No ticks have run: allowance is zero, growth denied.
	if inc := r.Advance(w, 1000); inc != 0 {
		t.Errorf("Advance = %d before any control tick, want 0", inc)
	}
}

func TestEmptyQueueGrantsBudget(t *testing.T) {
	eng := sim.NewEngine()
	sensor := &fakeSensor{len: 0, cap: 100}
	r := newRSS(t, eng, sensor, Config{})
	w := slowStartWindow()
	r.Reset(w)
	eng.RunFor(100 * time.Millisecond) // ~20 ticks with a large positive error
	if r.Allowance() <= 0 {
		t.Fatal("no allowance accumulated with empty IFQ")
	}
	inc := r.Advance(w, 1000)
	if inc != 1000 {
		t.Errorf("Advance = %d, want full MSS with ample budget", inc)
	}
}

func TestAdvanceNeverExceedsStandardSlowStart(t *testing.T) {
	eng := sim.NewEngine()
	r := newRSS(t, eng, &fakeSensor{len: 0, cap: 100}, Config{})
	w := slowStartWindow()
	r.Reset(w)
	eng.RunFor(time.Second)
	for i := 0; i < 50; i++ {
		if inc := r.Advance(w, 1000); inc > int64(w.MSS()) {
			t.Fatalf("Advance = %d exceeds one MSS (restricted > standard!)", inc)
		}
	}
}

func TestBudgetIsConsumed(t *testing.T) {
	eng := sim.NewEngine()
	r := newRSS(t, eng, &fakeSensor{len: 0, cap: 100}, Config{})
	w := slowStartWindow()
	r.Reset(w)
	eng.RunFor(100 * time.Millisecond)
	start := r.Allowance()
	var granted int64
	for r.Allowance() > 0 {
		granted += r.Advance(w, 1000)
	}
	if granted != start {
		t.Errorf("granted %d != initial allowance %d", granted, start)
	}
	if inc := r.Advance(w, 1000); inc != 0 {
		t.Errorf("Advance = %d after budget exhausted, want 0", inc)
	}
}

func TestQueueAboveSetpointFreezesGrowth(t *testing.T) {
	eng := sim.NewEngine()
	sensor := &fakeSensor{len: 0, cap: 100}
	r := newRSS(t, eng, sensor, Config{})
	w := slowStartWindow()
	r.Reset(w)
	eng.RunFor(100 * time.Millisecond)
	if r.Allowance() == 0 {
		t.Fatal("setup: no allowance accumulated")
	}
	// Queue shoots past the set point: the budget must be revoked.
	sensor.len = 99
	eng.RunFor(200 * time.Millisecond)
	if r.Allowance() != 0 {
		t.Errorf("allowance = %d with IFQ at 99/100, want 0", r.Allowance())
	}
	if r.ThrottledTicks() == 0 {
		t.Error("no throttled ticks recorded")
	}
}

func TestAllowanceCapBoundsBudget(t *testing.T) {
	eng := sim.NewEngine()
	r := newRSS(t, eng, &fakeSensor{len: 0, cap: 100}, Config{})
	w := slowStartWindow()
	r.Reset(w)
	eng.RunFor(10 * time.Second) // plenty of positive-output ticks
	if want := int64(allowanceCapSegments * w.MSS()); r.Allowance() != want {
		t.Errorf("allowance = %d after 10 s of unspent budget, want the cap of %d segments (%d B)",
			r.Allowance(), allowanceCapSegments, want)
	}
}

func TestControllerIdlesOutsideSlowStart(t *testing.T) {
	eng := sim.NewEngine()
	r := newRSS(t, eng, &fakeSensor{len: 0, cap: 100}, Config{})
	w := slowStartWindow()
	r.Reset(w)
	eng.RunFor(100 * time.Millisecond)
	// Leave slow start: cwnd >= ssthresh.
	w.ssthresh = 1000
	eng.RunFor(100 * time.Millisecond)
	if r.Allowance() != 0 {
		t.Errorf("allowance = %d outside slow start, want 0", r.Allowance())
	}
}

func TestAllowShrinkReducesWindow(t *testing.T) {
	eng := sim.NewEngine()
	sensor := &fakeSensor{len: 100, cap: 100} // far above set point
	r := newRSS(t, eng, sensor, Config{AllowShrink: true})
	w := slowStartWindow()
	w.cwnd = 500000
	r.Reset(w)
	eng.RunFor(500 * time.Millisecond)
	if w.cwnd >= 500000 {
		t.Errorf("cwnd = %d, want shrunk below 500000", w.cwnd)
	}
}

func TestNoShrinkByDefault(t *testing.T) {
	eng := sim.NewEngine()
	sensor := &fakeSensor{len: 100, cap: 100}
	r := newRSS(t, eng, sensor, Config{})
	w := slowStartWindow()
	w.cwnd = 500000
	r.Reset(w)
	eng.RunFor(500 * time.Millisecond)
	if w.cwnd != 500000 {
		t.Errorf("cwnd = %d changed; paper's RSS only restricts growth", w.cwnd)
	}
}

func TestOnTickObserves(t *testing.T) {
	eng := sim.NewEngine()
	r := newRSS(t, eng, &fakeSensor{len: 42, cap: 100}, Config{})
	w := slowStartWindow()
	calls := 0
	r.OnTick = func(occ float64, out float64, allowance int64) {
		calls++
		if occ != 42.0 {
			t.Errorf("occupancy = %v, want 42", occ)
		}
	}
	r.Reset(w)
	eng.RunFor(50 * time.Millisecond)
	if calls == 0 {
		t.Error("OnTick never fired")
	}
	if r.Ticks() != int64(calls) {
		t.Errorf("Ticks = %d, callbacks = %d", r.Ticks(), calls)
	}
}

func TestStopHaltsTicker(t *testing.T) {
	eng := sim.NewEngine()
	r := newRSS(t, eng, &fakeSensor{cap: 100}, Config{})
	r.Reset(slowStartWindow())
	eng.RunFor(50 * time.Millisecond)
	n := r.Ticks()
	r.Stop()
	eng.RunFor(50 * time.Millisecond)
	if r.Ticks() != n {
		t.Error("ticker still running after Stop")
	}
}

func TestResetRestartsCleanly(t *testing.T) {
	eng := sim.NewEngine()
	sensor := &fakeSensor{len: 0, cap: 100}
	r := newRSS(t, eng, sensor, Config{})
	w := slowStartWindow()
	r.Reset(w)
	eng.RunFor(100 * time.Millisecond)
	if r.Allowance() == 0 {
		t.Fatal("setup: no allowance")
	}
	r.Reset(w)
	if r.Allowance() != 0 {
		t.Error("Reset kept stale allowance")
	}
}

func TestRenoWithRSSInSlowStartSlot(t *testing.T) {
	eng := sim.NewEngine()
	rss, err := New(eng, Config{Sensor: &fakeSensor{cap: 100}})
	if err != nil {
		t.Fatal(err)
	}
	renoCfg := cc.DefaultRenoConfig()
	ctrl := new(cc.Reno)
	ctrl.Init(&renoCfg, rss, 0)
	if ctrl.Name() != "reno/restricted" {
		t.Errorf("Name = %q, want reno/restricted", ctrl.Name())
	}
	w := slowStartWindow()
	ctrl.Attach(w)
	if !ctrl.InSlowStart() {
		t.Error("not in slow start after attach")
	}
	if rss.Ticks() != 0 {
		t.Error("ticks before engine ran")
	}
	// Without budget, an ACK must not grow the window.
	before := w.Cwnd()
	ctrl.OnAck(1000)
	if w.Cwnd() != before {
		t.Errorf("cwnd grew by %d without PID budget", w.Cwnd()-before)
	}
	// With budget, growth resumes but bounded by standard slow-start.
	eng.RunFor(200 * time.Millisecond)
	ctrl.OnAck(1000)
	if w.Cwnd() <= before || w.Cwnd() > before+1000 {
		t.Errorf("cwnd grew by %d, want (0, 1000]", w.Cwnd()-before)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with nil sensor did not panic")
		}
	}()
	MustNew(sim.NewEngine(), Config{})
}

var _ cc.SlowStartPolicy = (*RestrictedSlowStart)(nil)
