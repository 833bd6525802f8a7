package cc

import (
	"time"

	"rsstcp/internal/sim"
)

// HyStart implements the Hybrid Slow Start heuristic (Ha & Rhee, 2008,
// as deployed with CUBIC in Linux): exit slow-start *before* overflowing a
// queue by watching for round-trip-time inflation. It is the mainstream
// answer to the same overshoot problem the paper attacks with its PID
// controller, so it makes a natural modern comparator.
//
// Both Linux detectors are implemented:
//
//   - Delay increase: the minimum raw RTT of the current round against the
//     minimum of the previous round; a rise beyond the clamped eta ends
//     slow-start. On a small IFQ this signal can appear and overflow within
//     a single round — a granularity limit the paper's 5 ms PID tick does
//     not have (see EXPERIMENTS.md T3).
//   - ACK train: consecutive closely-spaced ACKs whose span reaches half
//     the minimum RTT indicate the window has reached the pipe size.
type HyStart struct {
	roundStart   int64 // cwnd value marking the current round
	lastRoundRTT time.Duration
	curRoundRTT  time.Duration
	samples      int
	exited       bool

	minRTT     time.Duration // connection-lifetime minimum
	trainStart sim.Time
	trainLast  sim.Time
	trainOpen  bool
}

// The Linux constants: 8 RTT samples per round before the delay detector may
// fire, an exit threshold eta of 1/8 of the last round's RTT clamped to
// [4 ms, 16 ms], and at most 2 ms between the ACKs of one train.
const (
	hystartSamples  = 8
	hystartEtaShare = 1.0 / 8
	hystartEtaLo    = 4 * time.Millisecond
	hystartEtaHi    = 16 * time.Millisecond
	hystartAckGap   = 2 * time.Millisecond
)

// NewHyStart returns a HyStart policy.
func NewHyStart() *HyStart { return new(HyStart) }

// Name identifies the policy.
func (h *HyStart) Name() string { return "hystart" }

// Reset restarts round tracking when slow-start is (re)entered.
func (h *HyStart) Reset(w Window) {
	h.roundStart = 0
	h.lastRoundRTT = 0
	h.curRoundRTT = 0
	h.samples = 0
	h.exited = false
	h.minRTT = 0
	h.trainOpen = false
}

// Advance grows the window one MSS per ACK (standard slow-start) while
// monitoring RTT inflation; when the detector fires it collapses ssthresh
// to the current window, which ends slow-start without a loss event.
func (h *HyStart) Advance(w Window, acked int64) int64 {
	mss := int64(w.MSS())
	h.observe(w)
	if h.exited {
		// ssthresh was set to cwnd; Reno switches to congestion
		// avoidance on the next InSlowStart check. Grant no more
		// exponential growth meanwhile.
		return 0
	}
	return mss
}

func (h *HyStart) observe(w Window) {
	rtt := w.LastRTT()
	if rtt <= 0 {
		rtt = w.SRTT()
	}
	if rtt <= 0 {
		return
	}
	if h.minRTT == 0 || rtt < h.minRTT {
		h.minRTT = rtt
	}
	// Round boundary: a window's worth of ACKs has arrived when cwnd has
	// grown past the mark set at the round start.
	if h.roundStart == 0 || w.Cwnd() >= h.roundStart*3/2 {
		h.lastRoundRTT = h.curRoundRTT
		h.curRoundRTT = 0
		h.samples = 0
		h.roundStart = w.Cwnd()
		h.trainOpen = false
	}
	h.ackTrain(w)
	h.samples++
	if h.curRoundRTT == 0 || rtt < h.curRoundRTT {
		h.curRoundRTT = rtt
	}
	if h.lastRoundRTT <= 0 || h.samples < hystartSamples {
		return
	}
	eta := time.Duration(float64(h.lastRoundRTT) * hystartEtaShare)
	if eta < hystartEtaLo {
		eta = hystartEtaLo
	}
	if eta > hystartEtaHi {
		eta = hystartEtaHi
	}
	if h.curRoundRTT >= h.lastRoundRTT+eta {
		// Delay inflation: the path queue is building. Leave slow-start
		// at the current window.
		w.SetSsthresh(w.Cwnd())
		h.exited = true
	}
}

// ackTrain runs the ACK-train detector: a run of ACKs spaced at most
// hystartAckGap apart whose total span reaches half the minimum RTT means
// the window has filled the pipe.
func (h *HyStart) ackTrain(w Window) {
	if h.minRTT <= 0 {
		return
	}
	now := w.Now()
	if !h.trainOpen || now.Sub(h.trainLast) > hystartAckGap {
		h.trainStart = now
		h.trainOpen = true
	}
	h.trainLast = now
	if now.Sub(h.trainStart) >= h.minRTT/2 {
		w.SetSsthresh(w.Cwnd())
		h.exited = true
	}
}

// Exited reports whether a detector has fired since the last Reset.
func (h *HyStart) Exited() bool { return h.exited }
