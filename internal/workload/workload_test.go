package workload

import (
	"math"
	"testing"
	"time"

	"rsstcp/internal/sim"
	"rsstcp/internal/unit"
)

// fakeApp records supplies.
type fakeApp struct {
	supplied int64
	supplies []int64
	closed   bool
}

func (a *fakeApp) Supply(n int64) {
	a.supplied += n
	a.supplies = append(a.supplies, n)
}

func (a *fakeApp) Close() { a.closed = true }

func TestBulk(t *testing.T) {
	app := &fakeApp{}
	Bulk(app, 12345)
	if app.supplied != 12345 || !app.closed {
		t.Errorf("supplied=%d closed=%v, want 12345/true", app.supplied, app.closed)
	}
}

func TestUnbounded(t *testing.T) {
	app := &fakeApp{}
	Unbounded(app)
	if app.supplied < 1<<60 {
		t.Errorf("supplied=%d, want effectively infinite", app.supplied)
	}
	if app.closed {
		t.Error("Unbounded closed the app")
	}
}

func TestChunkedDeliversAllAndCloses(t *testing.T) {
	eng := sim.NewEngine()
	app := &fakeApp{}
	c := NewChunked(eng, app, 1050, 100, 10*time.Millisecond)
	c.Start()
	eng.Run()
	if app.supplied != 1050 {
		t.Errorf("supplied = %d, want 1050", app.supplied)
	}
	if !app.closed {
		t.Error("not closed after final chunk")
	}
	// 10 full chunks + 1 tail of 50.
	if len(app.supplies) != 11 {
		t.Errorf("supplies = %d, want 11", len(app.supplies))
	}
	if app.supplies[10] != 50 {
		t.Errorf("tail chunk = %d, want 50", app.supplies[10])
	}
	// Last chunk arrives at 10 * period.
	if eng.Now() != sim.At(100*time.Millisecond) {
		t.Errorf("finished at %v, want 100ms", eng.Now())
	}
}

func TestChunkedPanicsOnBadArgs(t *testing.T) {
	eng := sim.NewEngine()
	app := &fakeApp{}
	for name, fn := range map[string]func(){
		"zero chunk":  func() { NewChunked(eng, app, 100, 0, time.Second) },
		"zero total":  func() { NewChunked(eng, app, 0, 10, time.Second) },
		"zero period": func() { NewChunked(eng, app, 100, 10, 0) },
	} {
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

func TestOnOffRateDuringActivePhase(t *testing.T) {
	eng := sim.NewEngine()
	app := &fakeApp{}
	// 10 Mbps for 1 s on, 1 s off; parcel 1250 B -> 1 parcel per ms.
	o := NewOnOff(eng, app, time.Second, time.Second, 10*unit.Mbps, 1250)
	o.Start()
	eng.RunUntil(sim.At(time.Second))
	// ~1000 parcels of 1250 B = 1.25 MB in the first on-second.
	want := 1.25e6
	got := float64(app.supplied)
	if math.Abs(got-want)/want > 0.02 {
		t.Errorf("supplied %v in on phase, want ~%v", got, want)
	}
}

func TestOnOffSilentDuringOffPhase(t *testing.T) {
	eng := sim.NewEngine()
	app := &fakeApp{}
	o := NewOnOff(eng, app, 100*time.Millisecond, 500*time.Millisecond, 10*unit.Mbps, 1250)
	o.Start()
	eng.RunUntil(sim.At(100 * time.Millisecond))
	after := app.supplied
	eng.RunUntil(sim.At(590 * time.Millisecond))
	if app.supplied != after {
		t.Errorf("supplied %d during off phase", app.supplied-after)
	}
	// Second on phase resumes.
	eng.RunUntil(sim.At(700 * time.Millisecond))
	if app.supplied == after {
		t.Error("did not resume after off phase")
	}
}

func TestOnOffStop(t *testing.T) {
	eng := sim.NewEngine()
	app := &fakeApp{}
	o := NewOnOff(eng, app, time.Second, time.Second, 10*unit.Mbps, 1250)
	o.Start()
	eng.RunUntil(sim.At(10 * time.Millisecond))
	o.Stop()
	n := app.supplied
	eng.RunUntil(sim.At(5 * time.Second))
	if app.supplied != n {
		t.Error("supplies continued after Stop")
	}
	if o.Active() {
		t.Error("Active after Stop")
	}
}

// TestOnOffStopCancelsTimers pins the detach invariant: Stop cancels the
// pending toggle and pump entries, so a detached flow's source leaves no
// live calendar entries and the event pool accounts for every entry it
// issued.
func TestOnOffStopCancelsTimers(t *testing.T) {
	eng := sim.NewEngine()
	app := &fakeApp{}
	o := NewOnOff(eng, app, time.Second, time.Second, 10*unit.Mbps, 1250)
	o.Start()
	eng.RunUntil(sim.At(10 * time.Millisecond))
	o.Stop()
	if got := eng.Pending(); got != 0 {
		t.Errorf("%d calendar entries survive Stop", got)
	}
	if got := eng.Leaked(); got != 0 {
		t.Errorf("%d pool entries leaked", got)
	}
	ps := eng.PoolStats()
	if issued := ps.Created + ps.Reused; issued != ps.Recycled {
		t.Errorf("pool imbalance: issued %d, recycled %d", issued, ps.Recycled)
	}
	// Stop twice is a no-op, not a double cancel.
	o.Stop()
	if got := eng.Leaked(); got != 0 {
		t.Errorf("double Stop leaked %d entries", got)
	}
}
