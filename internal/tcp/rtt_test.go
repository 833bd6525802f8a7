package tcp

import (
	"testing"
	"time"
)

// newTestEstimator returns a fresh estimator and the (default) RTO
// parameters it reads: initial 1 s, floor 200 ms, cap 120 s, G 1 ms.
func newTestEstimator() (rttEstimator, *Config) {
	c := DefaultConfig()
	return rttEstimator{rto: c.InitialRTO}, &c
}

func TestRTTFirstSample(t *testing.T) {
	e, c := newTestEstimator()
	if e.HasSample() {
		t.Error("fresh estimator claims a sample")
	}
	if e.RTO() != time.Second {
		t.Errorf("initial RTO = %v, want 1s", e.RTO())
	}
	e.Update(60*time.Millisecond, c)
	if e.SRTT() != 60*time.Millisecond {
		t.Errorf("SRTT = %v, want 60ms", e.SRTT())
	}
	if e.RTTVar() != 30*time.Millisecond {
		t.Errorf("RTTVAR = %v, want 30ms", e.RTTVar())
	}
	// RTO = SRTT + 4*RTTVAR = 60 + 120 = 180ms, clamped to MinRTO 200ms.
	if e.RTO() != 200*time.Millisecond {
		t.Errorf("RTO = %v, want 200ms (min clamp)", e.RTO())
	}
}

func TestRTTSmoothing(t *testing.T) {
	e, c := newTestEstimator()
	e.Update(100*time.Millisecond, c)
	e.Update(200*time.Millisecond, c)
	// SRTT = 7/8*100 + 1/8*200 = 112.5ms
	want := 112500 * time.Microsecond
	if e.SRTT() != want {
		t.Errorf("SRTT = %v, want %v", e.SRTT(), want)
	}
	// RTTVAR = 3/4*50 + 1/4*|100-200| = 62.5ms
	if e.RTTVar() != 62500*time.Microsecond {
		t.Errorf("RTTVAR = %v, want 62.5ms", e.RTTVar())
	}
}

func TestRTTConvergesOnSteadySamples(t *testing.T) {
	e, c := newTestEstimator()
	for i := 0; i < 100; i++ {
		e.Update(60*time.Millisecond, c)
	}
	if d := e.SRTT() - 60*time.Millisecond; d < -time.Millisecond || d > time.Millisecond {
		t.Errorf("SRTT = %v, want ~60ms", e.SRTT())
	}
	// Variance decays toward zero; RTO approaches SRTT + G floor region.
	if e.RTO() > 250*time.Millisecond {
		t.Errorf("RTO = %v, want converged near the minimum", e.RTO())
	}
}

func TestRTTBackoffDoubles(t *testing.T) {
	e, c := newTestEstimator()
	e.Update(100*time.Millisecond, c)
	r0 := e.RTO()
	e.Backoff(c)
	if e.RTO() != 2*r0 {
		t.Errorf("RTO after backoff = %v, want %v", e.RTO(), 2*r0)
	}
	e.Backoff(c)
	if e.RTO() != 4*r0 {
		t.Errorf("RTO after 2 backoffs = %v, want %v", e.RTO(), 4*r0)
	}
}

func TestRTTBackoffClampsAtMax(t *testing.T) {
	e, c := newTestEstimator()
	c.MaxRTO = 5 * time.Second
	for i := 0; i < 10; i++ {
		e.Backoff(c)
	}
	if e.RTO() != 5*time.Second {
		t.Errorf("RTO = %v, want clamped at 5s", e.RTO())
	}
}

func TestRTTUpdateClearsBackoff(t *testing.T) {
	e, c := newTestEstimator()
	e.Update(100*time.Millisecond, c)
	e.Backoff(c)
	e.Backoff(c)
	e.Update(100*time.Millisecond, c)
	// A fresh sample recomputes RTO from SRTT/RTTVAR rather than the
	// backed-off value.
	if e.RTO() > time.Second {
		t.Errorf("RTO = %v, want recomputed small value", e.RTO())
	}
}

func TestRTTNonPositiveSampleUsesGranularity(t *testing.T) {
	e, c := newTestEstimator()
	e.Update(0, c)
	if e.SRTT() != time.Millisecond {
		t.Errorf("SRTT = %v, want granularity 1ms", e.SRTT())
	}
}
