package cc

import (
	"testing"
	"time"
)

func TestHyStartGrowsLikeStandardAtFlatRTT(t *testing.T) {
	w := newWindow()
	h := NewHyStart()
	h.Reset(w)
	w.srtt = 60 * time.Millisecond
	for i := 0; i < 100; i++ {
		if inc := h.Advance(w, 1000); inc != 1000 {
			t.Fatalf("inc = %d at flat RTT, want full MSS", inc)
		}
		w.cwnd += 1000
	}
	if h.Exited() {
		t.Error("exited slow-start with a flat RTT")
	}
}

func TestHyStartExitsOnRTTInflation(t *testing.T) {
	w := newWindow()
	w.ssthresh = 1 << 40
	h := NewHyStart()
	h.Reset(w)
	// Round 1: flat 60 ms baseline while the window grows.
	w.srtt = 60 * time.Millisecond
	for i := 0; i < 60; i++ {
		w.cwnd += h.Advance(w, 1000)
	}
	// Queue builds: RTT inflates well past eta (max 16 ms).
	w.srtt = 100 * time.Millisecond
	for i := 0; i < 60 && !h.Exited(); i++ {
		w.cwnd += h.Advance(w, 1000)
	}
	if !h.Exited() {
		t.Fatal("delay detector never fired despite 40 ms inflation")
	}
	if w.ssthresh > w.cwnd {
		t.Errorf("ssthresh = %d not collapsed to cwnd %d", w.ssthresh, w.cwnd)
	}
	// After exit no further exponential growth is granted.
	if inc := h.Advance(w, 1000); inc != 0 {
		t.Errorf("inc = %d after exit, want 0", inc)
	}
}

func TestHyStartIgnoresSmallJitter(t *testing.T) {
	w := newWindow()
	h := NewHyStart()
	h.Reset(w)
	// 2 ms of jitter is below hystartEtaLo (4 ms): never exit.
	base := 60 * time.Millisecond
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			w.srtt = base
		} else {
			w.srtt = base + 2*time.Millisecond
		}
		w.cwnd += h.Advance(w, 1000)
	}
	if h.Exited() {
		t.Error("exited on sub-threshold jitter")
	}
}

func TestHyStartNeedsMinSamples(t *testing.T) {
	w := newWindow()
	w.ssthresh = 1 << 40
	w.cwnd = 10 * 1000
	h := NewHyStart()
	h.Reset(w)
	w.srtt = 60 * time.Millisecond
	// Establish a baseline round.
	for i := 0; i < 30; i++ {
		w.cwnd += h.Advance(w, 1000)
	}
	// Open a new round with the RTT already inflated: the detector must
	// hold fire until the round has hystartSamples samples.
	w.cwnd = h.roundStart * 3 / 2
	w.srtt = 120 * time.Millisecond
	for i := 1; i < hystartSamples; i++ {
		w.cwnd += h.Advance(w, 1000)
		if h.Exited() {
			t.Fatalf("fired after %d samples, before %d", i, hystartSamples)
		}
	}
	w.cwnd += h.Advance(w, 1000)
	if !h.Exited() {
		t.Errorf("did not fire at sample %d", hystartSamples)
	}
}

func TestHyStartResetClearsDetector(t *testing.T) {
	w := newWindow()
	h := NewHyStart()
	h.Reset(w)
	w.srtt = 60 * time.Millisecond
	for i := 0; i < 60; i++ {
		w.cwnd += h.Advance(w, 1000)
	}
	w.srtt = 120 * time.Millisecond
	for i := 0; i < 60 && !h.Exited(); i++ {
		w.cwnd += h.Advance(w, 1000)
	}
	if !h.Exited() {
		t.Fatal("setup: detector did not fire")
	}
	h.Reset(w)
	if h.Exited() {
		t.Error("Reset did not clear the detector")
	}
}

func TestHyStartWithRenoIntegration(t *testing.T) {
	w := newWindow()
	h := NewHyStart()
	r := newRenoWith(RenoConfig{IW: 2}, h)
	r.Attach(w)
	if r.Name() != "reno/hystart" {
		t.Errorf("Name = %q", r.Name())
	}
	w.srtt = 60 * time.Millisecond
	for i := 0; i < 60; i++ {
		r.OnAck(1000)
	}
	if !r.InSlowStart() {
		t.Fatal("left slow start with flat RTT")
	}
	w.srtt = 120 * time.Millisecond
	for i := 0; i < 120 && r.InSlowStart(); i++ {
		r.OnAck(1000)
	}
	if r.InSlowStart() {
		t.Error("HyStart did not move Reno into congestion avoidance")
	}
}

func TestHyStartAckTrainFiresOnContiguousBurst(t *testing.T) {
	// Contiguous delayed ACKs (240 us spacing, as through a 100 Mbps
	// bottleneck): the train detector must end slow-start once the burst
	// span reaches half the minimum RTT, independent of queue delay.
	w := newWindow()
	w.ssthresh = 1 << 40
	w.cwnd = 100 * 1000
	h := NewHyStart()
	h.Reset(w)
	w.srtt = 60 * time.Millisecond
	for i := 0; i < 1000; i++ {
		w.now = w.now.Add(240 * time.Microsecond)
		w.cwnd += h.Advance(w, 2000)
		if h.Exited() {
			// Round-boundary train resets make the earliest possible
			// fire the first round whose span exceeds minRTT/2.
			if w.cwnd < 250*1000 || w.cwnd > 600*1000 {
				t.Errorf("exited at cwnd %d bytes, expected a mid-range fire", w.cwnd)
			}
			return
		}
	}
	t.Fatal("ACK-train detector never fired on a contiguous burst")
}

func TestHyStartAckTrainResetsOnGap(t *testing.T) {
	w := newWindow()
	w.ssthresh = 1 << 40
	w.cwnd = 100 * 1000
	h := NewHyStart()
	h.Reset(w)
	w.srtt = 60 * time.Millisecond
	// Acks spaced past hystartAckGap never accumulate a train.
	for i := 0; i < 500; i++ {
		w.now = w.now.Add(5 * time.Millisecond)
		h.Advance(w, 2000)
	}
	if h.Exited() {
		t.Error("train detector fired despite gaps beyond hystartAckGap")
	}
}

func TestHyStartNoRTTNoCrash(t *testing.T) {
	w := newWindow()
	w.srtt = 0 // no sample yet
	h := NewHyStart()
	h.Reset(w)
	for i := 0; i < 10; i++ {
		if inc := h.Advance(w, 1000); inc != 1000 {
			t.Fatalf("inc = %d without RTT samples", inc)
		}
	}
}
