package cc

import (
	"testing"
	"testing/quick"
	"time"

	"rsstcp/internal/sim"
)

// fakeWindow is a minimal Window for exercising controllers directly.
type fakeWindow struct {
	mss      int
	cwnd     int64
	ssthresh int64
	flight   int64
	srtt     time.Duration
	now      sim.Time
}

func (f *fakeWindow) MSS() int               { return f.mss }
func (f *fakeWindow) Cwnd() int64            { return f.cwnd }
func (f *fakeWindow) SetCwnd(b int64)        { f.cwnd = b }
func (f *fakeWindow) Ssthresh() int64        { return f.ssthresh }
func (f *fakeWindow) SetSsthresh(b int64)    { f.ssthresh = b }
func (f *fakeWindow) FlightSize() int64      { return f.flight }
func (f *fakeWindow) SRTT() time.Duration    { return f.srtt }
func (f *fakeWindow) LastRTT() time.Duration { return f.srtt }
func (f *fakeWindow) Now() sim.Time          { return f.now }

func newWindow() *fakeWindow { return &fakeWindow{mss: 1000} }

// newRenoWith is NewReno on slow-start policy ss.
func newRenoWith(cfg RenoConfig, ss SlowStartPolicy) *Reno {
	cfg.fillDefaults()
	r := new(Reno)
	r.Init(&cfg, ss, 0)
	return r
}

func TestRenoAttachInitialWindow(t *testing.T) {
	w := newWindow()
	r := NewReno(RenoConfig{IW: 2})
	r.Attach(w)
	if w.cwnd != 2000 {
		t.Errorf("initial cwnd = %d, want 2000 (IW=2)", w.cwnd)
	}
	if w.ssthresh != 1<<40 {
		t.Errorf("initial ssthresh = %d, want effectively infinite", w.ssthresh)
	}
	if !r.InSlowStart() {
		t.Error("fresh connection not in slow start")
	}
	if r.Name() != "reno/standard" {
		t.Errorf("Name = %q", r.Name())
	}
}

func TestRenoDefaultsApplied(t *testing.T) {
	r := NewReno(RenoConfig{})
	w := newWindow()
	r.Attach(w)
	if w.cwnd != 2000 {
		t.Errorf("default IW cwnd = %d, want 2000", w.cwnd)
	}
}

func TestStdSlowStartGrowsMSSPerAck(t *testing.T) {
	w := newWindow()
	r := NewReno(RenoConfig{IW: 2})
	r.Attach(w)
	for i := 0; i < 10; i++ {
		r.OnAck(2000) // delayed ACK covering two segments
	}
	// +1 MSS per ACK regardless of bytes covered.
	if w.cwnd != 2000+10*1000 {
		t.Errorf("cwnd = %d, want 12000", w.cwnd)
	}
}

func TestStdSlowStartABCGrowsByBytes(t *testing.T) {
	w := newWindow()
	r := newRenoWith(RenoConfig{IW: 2}, StdSlowStart{ABC: true})
	r.Attach(w)
	r.OnAck(2000)
	if w.cwnd != 4000 {
		t.Errorf("ABC cwnd = %d, want 4000 (acked bytes)", w.cwnd)
	}
	r.OnAck(5000) // capped at 2*MSS
	if w.cwnd != 6000 {
		t.Errorf("ABC capped cwnd = %d, want 6000", w.cwnd)
	}
	if r.Name() != "reno/standard+abc" {
		t.Errorf("Name = %q", r.Name())
	}
}

func TestSlowStartStopsAtSsthresh(t *testing.T) {
	w := newWindow()
	r := NewReno(RenoConfig{IW: 2, InitialSsthresh: 5000})
	r.Attach(w)
	r.OnAck(1000) // 3000
	r.OnAck(1000) // 4000
	r.OnAck(1000) // 5000, clamped exactly at ssthresh
	if w.cwnd != 5000 {
		t.Errorf("cwnd = %d, want exactly ssthresh 5000", w.cwnd)
	}
	if r.InSlowStart() {
		t.Error("still in slow start at ssthresh")
	}
}

func TestCongestionAvoidanceLinearGrowth(t *testing.T) {
	w := newWindow()
	r := NewReno(RenoConfig{IW: 2, InitialSsthresh: 1000})
	r.Attach(w)
	w.cwnd = 10000 // 10 segments, above ssthresh
	// One full window of ACKs should add ~1 MSS.
	for i := 0; i < 10; i++ {
		r.OnAck(1000)
	}
	if w.cwnd != 11000 {
		t.Errorf("cwnd after one window = %d, want 11000", w.cwnd)
	}
	// The next window requires 11 ACKs.
	for i := 0; i < 11; i++ {
		r.OnAck(1000)
	}
	if w.cwnd != 12000 {
		t.Errorf("cwnd after second window = %d, want 12000", w.cwnd)
	}
}

func TestEnterRecoveryHalvesWindow(t *testing.T) {
	w := newWindow()
	r := NewReno(RenoConfig{IW: 2})
	r.Attach(w)
	w.cwnd = 20000
	w.flight = 20000
	r.OnEnterRecovery()
	if w.ssthresh != 10000 {
		t.Errorf("ssthresh = %d, want 10000 (flight/2)", w.ssthresh)
	}
	if w.cwnd != 13000 {
		t.Errorf("cwnd = %d, want ssthresh+3MSS = 13000", w.cwnd)
	}
	if r.InSlowStart() {
		t.Error("in slow start during recovery")
	}
}

func TestEnterRecoveryFloorTwoMSS(t *testing.T) {
	w := newWindow()
	r := NewReno(RenoConfig{IW: 2})
	r.Attach(w)
	w.flight = 1000
	r.OnEnterRecovery()
	if w.ssthresh != 2000 {
		t.Errorf("ssthresh = %d, want floor 2*MSS", w.ssthresh)
	}
}

func TestDupAckInflatesOnlyInRecovery(t *testing.T) {
	w := newWindow()
	r := NewReno(RenoConfig{IW: 2})
	r.Attach(w)
	before := w.cwnd
	r.OnDupAck() // not in recovery: no-op
	if w.cwnd != before {
		t.Error("dup ACK inflated window outside recovery")
	}
	w.flight = 20000
	r.OnEnterRecovery()
	inRec := w.cwnd
	r.OnDupAck()
	if w.cwnd != inRec+1000 {
		t.Errorf("cwnd = %d, want +1 MSS inflation", w.cwnd)
	}
}

func TestExitRecoveryDeflates(t *testing.T) {
	w := newWindow()
	r := NewReno(RenoConfig{IW: 2})
	r.Attach(w)
	w.cwnd, w.flight = 20000, 20000
	r.OnEnterRecovery()
	r.OnDupAck()
	r.OnDupAck()
	r.OnExitRecovery()
	if w.cwnd != w.ssthresh {
		t.Errorf("cwnd = %d, want ssthresh %d", w.cwnd, w.ssthresh)
	}
	if !r.InSlowStart() == (w.cwnd < w.ssthresh) {
		t.Error("InSlowStart inconsistent after recovery")
	}
}

func TestPartialAckDeflation(t *testing.T) {
	w := newWindow()
	r := NewReno(RenoConfig{IW: 2})
	r.Attach(w)
	w.cwnd, w.flight = 20000, 20000
	r.OnEnterRecovery() // cwnd = 13000
	r.OnPartialAck(5000)
	if w.cwnd != 13000-5000+1000 {
		t.Errorf("cwnd = %d, want 9000", w.cwnd)
	}
	// Deflation never goes below one MSS.
	r.OnPartialAck(100000)
	if w.cwnd != 1000 {
		t.Errorf("cwnd = %d, want 1 MSS floor", w.cwnd)
	}
}

func TestRTOCollapsesToOneSegment(t *testing.T) {
	w := newWindow()
	r := NewReno(RenoConfig{IW: 2})
	r.Attach(w)
	w.cwnd, w.flight = 30000, 30000
	r.OnRTO()
	if w.cwnd != 1000 {
		t.Errorf("cwnd = %d, want 1 MSS", w.cwnd)
	}
	if w.ssthresh != 15000 {
		t.Errorf("ssthresh = %d, want 15000", w.ssthresh)
	}
	if !r.InSlowStart() {
		t.Error("not back in slow start after RTO")
	}
}

func TestLocalStallCutsWithoutInflation(t *testing.T) {
	w := newWindow()
	r := NewReno(RenoConfig{IW: 2})
	r.Attach(w)
	w.cwnd, w.flight = 24000, 24000
	r.OnLocalStall()
	if w.ssthresh != 12000 {
		t.Errorf("ssthresh = %d, want 12000", w.ssthresh)
	}
	if w.cwnd != 12000 {
		t.Errorf("cwnd = %d, want 12000 (no +3MSS inflation)", w.cwnd)
	}
	if r.InSlowStart() {
		t.Error("still in slow start after local stall (cwnd == ssthresh)")
	}
}

func TestLimitedSlowStartBelowThreshold(t *testing.T) {
	w := newWindow()
	ls := LimitedSlowStart{} // max_ssthresh 100 segments
	w.cwnd = 50000
	if inc := ls.Advance(w, 1000); inc != 1000 {
		t.Errorf("inc = %d, want full MSS below max_ssthresh", inc)
	}
}

func TestLimitedSlowStartAboveThreshold(t *testing.T) {
	w := newWindow()
	ls := LimitedSlowStart{}
	// cwnd = 200 segments: K = ceil(200/50) = 4 -> MSS/4.
	w.cwnd = 200000
	if inc := ls.Advance(w, 1000); inc != 250 {
		t.Errorf("inc = %d, want 250 (MSS/K, K=4)", inc)
	}
	// Very large cwnd still advances at least one byte.
	w.cwnd = 100000 * 1000
	if inc := ls.Advance(w, 1000); inc < 1 {
		t.Errorf("inc = %d, want >= 1", inc)
	}
}

func TestLimitedSlowStartDefaultThreshold(t *testing.T) {
	w := newWindow()
	ls := LimitedSlowStart{} // max_ssthresh 100 segments
	w.cwnd = 100000
	if inc := ls.Advance(w, 1000); inc != 1000 {
		t.Errorf("inc at default threshold = %d, want 1000", inc)
	}
	w.cwnd = 400000
	// K = ceil(400/50) = 8
	if inc := ls.Advance(w, 1000); inc != 125 {
		t.Errorf("inc = %d, want 125", inc)
	}
}

func TestLimitedSlowStartPerRTTBound(t *testing.T) {
	// Property (RFC 3742 intent): at most max_ssthresh/2 growth per RTT.
	// One RTT delivers cwnd/MSS ACKs (no delayed ACKs, worst case).
	err := quick.Check(func(cwndSegsRaw uint16) bool {
		cwndSegs := int64(cwndSegsRaw%2000) + 101 // above threshold
		w := newWindow()
		ls := LimitedSlowStart{}
		w.cwnd = cwndSegs * 1000
		acks := cwndSegs
		var growth int64
		for i := int64(0); i < acks; i++ {
			growth += ls.Advance(w, 1000)
		}
		// Allow rounding slack of one MSS.
		return growth <= 50*1000+1000
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestSlowStartNeverShrinksWindow(t *testing.T) {
	// Property: every policy returns a non-negative increment.
	policies := []SlowStartPolicy{
		StdSlowStart{}, StdSlowStart{ABC: true},
		LimitedSlowStart{},
	}
	err := quick.Check(func(cwndRaw uint32, ackedRaw uint16) bool {
		w := newWindow()
		w.cwnd = int64(cwndRaw%10_000_000) + 1000
		acked := int64(ackedRaw) + 1
		for _, p := range policies {
			if p.Advance(w, acked) < 0 {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
}
