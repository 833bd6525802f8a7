package web100

import (
	"testing"
	"time"

	"rsstcp/internal/sim"
	"rsstcp/internal/unit"
)

func at(d time.Duration) sim.Time { return sim.At(d) }

func TestObserveRTTMinMax(t *testing.T) {
	var s Live
	s.Init(0)
	s.ObserveRTT(60 * time.Millisecond)
	s.ObserveRTT(45 * time.Millisecond)
	s.ObserveRTT(90 * time.Millisecond)
	if s.MinRTT != 45*time.Millisecond {
		t.Errorf("MinRTT = %v, want 45ms", s.MinRTT)
	}
	if s.MaxRTT != 90*time.Millisecond {
		t.Errorf("MaxRTT = %v, want 90ms", s.MaxRTT)
	}
	if s.CountRTT != 3 {
		t.Errorf("CountRTT = %d, want 3", s.CountRTT)
	}
}

// TestMinRTTUnsetSentinel: before any sample MinRTT and MinSsthresh read 0
// — what rsstcp-sim prints for a transfer that never took an RTT sample —
// and the first sample sets them.
func TestMinRTTUnsetSentinel(t *testing.T) {
	var s Live
	s.Init(0)
	if s.MinRTT != 0 || s.MinSsthresh != 0 {
		t.Errorf("unset MinRTT %v, MinSsthresh %d; want 0, 0", s.MinRTT, s.MinSsthresh)
	}
	s.ObserveRTT(time.Millisecond)
	if s.MinRTT != time.Millisecond {
		t.Errorf("first sample should set MinRTT, got %v", s.MinRTT)
	}
	s.ObserveSsthresh(2896)
	if s.MinSsthresh != 2896 {
		t.Errorf("first call should set MinSsthresh, got %d", s.MinSsthresh)
	}
}

// TestCwndGauges: the live block keeps the high-water mark, a snapshot
// reports the sender's current window beside it.
func TestCwndGauges(t *testing.T) {
	var s Live
	s.Init(0)
	s.ObserveCwnd(10000)
	s.ObserveCwnd(50000)
	s.ObserveCwnd(25000)
	snap := s.Snapshot(0, Gauges{Cwnd: 25000})
	if snap.CurCwnd != 25000 {
		t.Errorf("CurCwnd = %d, want 25000", snap.CurCwnd)
	}
	if s.MaxCwnd != 50000 || snap.MaxCwnd != 50000 {
		t.Errorf("MaxCwnd = %d (snapshot %d), want 50000", s.MaxCwnd, snap.MaxCwnd)
	}
}

func TestSsthreshGauges(t *testing.T) {
	var s Live
	s.Init(0)
	s.ObserveSsthresh(100000)
	s.ObserveSsthresh(40000)
	s.ObserveSsthresh(70000)
	snap := s.Snapshot(0, Gauges{Ssthresh: 70000})
	if snap.CurSsthresh != 70000 {
		t.Errorf("CurSsthresh = %d, want 70000", snap.CurSsthresh)
	}
	if s.MinSsthresh != 40000 || snap.MinSsthresh != 40000 {
		t.Errorf("MinSsthresh = %d (snapshot %d), want 40000", s.MinSsthresh, snap.MinSsthresh)
	}
}

// TestSnapshotDerivesMirroredGauges: SegsOut is DataSegsOut, and the RTT
// gauges are the ones handed in.
func TestSnapshotDerivesMirroredGauges(t *testing.T) {
	var s Live
	s.Init(0)
	s.DataSegsOut = 7
	snap := s.Snapshot(0, Gauges{SRTT: 3 * time.Millisecond, RTO: 200 * time.Millisecond})
	if snap.SegsOut != 7 || snap.DataSegsOut != 7 {
		t.Errorf("SegsOut %d, DataSegsOut %d; want 7, 7", snap.SegsOut, snap.DataSegsOut)
	}
	if snap.SmoothedRTT != 3*time.Millisecond || snap.CurRTO != 200*time.Millisecond {
		t.Errorf("SmoothedRTT %v, CurRTO %v; want 3ms, 200ms", snap.SmoothedRTT, snap.CurRTO)
	}
}

func TestSndLimTimeAccounting(t *testing.T) {
	var s Live
	s.Init(0)
	s.SetSndLim(SndLimCwnd, at(0))
	s.SetSndLim(SndLimSender, at(3*time.Second))
	s.SetSndLim(SndLimCwnd, at(5*time.Second))
	s.Finish(at(10 * time.Second))
	if s.SndLimTimeCwnd != 8*time.Second {
		t.Errorf("SndLimTimeCwnd = %v, want 8s", s.SndLimTimeCwnd)
	}
	if s.SndLimTimeSender != 2*time.Second {
		t.Errorf("SndLimTimeSender = %v, want 2s", s.SndLimTimeSender)
	}
	if s.SndLimTransCwnd != 2 || s.SndLimTransSnd != 1 {
		t.Errorf("transitions cwnd=%d snd=%d, want 2/1", s.SndLimTransCwnd, s.SndLimTransSnd)
	}
}

func TestSndLimSameStateNoTransition(t *testing.T) {
	var s Live
	s.Init(0)
	s.SetSndLim(SndLimCwnd, at(time.Second))
	s.SetSndLim(SndLimCwnd, at(2*time.Second))
	if s.SndLimTransCwnd != 1 {
		t.Errorf("transitions = %d, want 1 (idempotent set)", s.SndLimTransCwnd)
	}
}

func TestSnapshotChargesOpenInterval(t *testing.T) {
	var s Live
	s.Init(0)
	s.SetSndLim(SndLimRwnd, at(0))
	snap := s.Snapshot(at(4*time.Second), Gauges{})
	if snap.SndLimTimeRwnd != 4*time.Second {
		t.Errorf("snapshot SndLimTimeRwnd = %v, want 4s", snap.SndLimTimeRwnd)
	}
	// The original is not disturbed by snapshotting.
	s.Finish(at(6 * time.Second))
	if s.SndLimTimeRwnd != 6*time.Second {
		t.Errorf("original SndLimTimeRwnd = %v, want 6s", s.SndLimTimeRwnd)
	}
}

func TestThroughputAndElapsed(t *testing.T) {
	var l Live
	l.Init(at(time.Second))
	l.ThruOctetsAcked = 125_000_000 // 125 MB
	l.Finish(at(11 * time.Second))  // 10 s transfer
	s := l.Snapshot(at(11*time.Second), Gauges{})
	if got := s.Elapsed(at(99 * time.Second)); got != 10*time.Second {
		t.Errorf("Elapsed = %v, want 10s (uses EndTime)", got)
	}
	if got := s.Throughput(at(99 * time.Second)); got != 100*unit.Mbps {
		t.Errorf("Throughput = %v, want 100Mbps", got)
	}
}

func TestElapsedBeforeFinishUsesNow(t *testing.T) {
	s := Stats{StartTime: at(time.Second)}
	if got := s.Elapsed(at(5 * time.Second)); got != 4*time.Second {
		t.Errorf("Elapsed = %v, want 4s", got)
	}
}

func TestSndLimStateString(t *testing.T) {
	cases := map[SndLimState]string{
		SndLimNone:      "none",
		SndLimCwnd:      "cwnd",
		SndLimRwnd:      "rwnd",
		SndLimSender:    "sender",
		SndLimState(99): "SndLimState(99)",
	}
	for st, want := range cases {
		if got := st.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(st), got, want)
		}
	}
}
