package cc

import "rsstcp/internal/telemetry"

// RenoConfig parameterizes the Reno controller.
type RenoConfig struct {
	// IW is the initial window in segments. The 2.4-kernel era default
	// is 2 (RFC 2581); RFC 3390 permits up to 4.
	IW int
	// InitialSsthresh is the starting slow-start threshold in bytes;
	// effectively infinite by default, as in Linux.
	InitialSsthresh int64
	// SS is the slow-start growth policy; nil means StdSlowStart.
	SS SlowStartPolicy
}

// DefaultRenoConfig returns the 2.4-era defaults the paper's baseline used.
func DefaultRenoConfig() RenoConfig {
	return RenoConfig{IW: 2, InitialSsthresh: 1 << 40}
}

// Reno implements the RFC 5681 congestion window arithmetic: slow start
// (delegated to a SlowStartPolicy), congestion avoidance, fast-recovery
// inflation/deflation and the multiplicative decrease, plus the Linux 2.4
// local-congestion (send-stall) response.
type Reno struct {
	cfg     RenoConfig // cfg.SS is the active slow-start policy
	w       Window
	caAccum int64 // byte-counting accumulator for congestion avoidance

	fr         *telemetry.FlightRecorder // nil-safe: unset means no recording
	flow       int32
	inRecovery bool
}

// NewReno returns a Reno controller. Zero-value fields of cfg are replaced
// by defaults.
func NewReno(cfg RenoConfig) *Reno {
	r := new(Reno)
	r.Init(cfg)
	return r
}

// Init (re)initializes the controller in place, unattached and with no
// telemetry; nothing of a previous use survives.
func (r *Reno) Init(cfg RenoConfig) {
	def := DefaultRenoConfig()
	if cfg.IW <= 0 {
		cfg.IW = def.IW
	}
	if cfg.InitialSsthresh <= 0 {
		cfg.InitialSsthresh = def.InitialSsthresh
	}
	if cfg.SS == nil {
		cfg.SS = StdSlowStart{}
	}
	*r = Reno{cfg: cfg}
}

// Name identifies the controller and its slow-start policy.
func (r *Reno) Name() string { return "reno/" + r.cfg.SS.Name() }

// SlowStartPolicy returns the active slow-start growth policy.
func (r *Reno) SlowStartPolicy() SlowStartPolicy { return r.cfg.SS }

// Attach initializes cwnd and ssthresh on the sender's window.
func (r *Reno) Attach(w Window) {
	r.w = w
	w.SetCwnd(int64(r.cfg.IW) * int64(w.MSS()))
	w.SetSsthresh(r.cfg.InitialSsthresh)
	r.cfg.SS.Reset(w)
}

// SetTelemetry attaches a flight recorder; the controller records its
// multiplicative decreases (KindMD, old/new ssthresh) under the given flow.
// A nil recorder records nothing.
func (r *Reno) SetTelemetry(fr *telemetry.FlightRecorder, flow int32) {
	r.fr = fr
	r.flow = flow
}

// recordMD records one multiplicative decrease, old → new ssthresh.
func (r *Reno) recordMD(oldThresh, newThresh int64) {
	r.fr.Record(r.w.Now(), telemetry.KindMD, r.flow, -1, oldThresh, newThresh)
}

// InSlowStart reports whether growth is governed by the slow-start policy.
func (r *Reno) InSlowStart() bool {
	return !r.inRecovery && r.w.Cwnd() < r.w.Ssthresh()
}

// OnAck grows the window: slow-start policy below ssthresh, additive
// increase (one MSS per window of acked data) above it.
func (r *Reno) OnAck(acked int64) {
	mss := int64(r.w.MSS())
	if r.InSlowStart() {
		inc := r.cfg.SS.Advance(r.w, acked)
		if inc < 0 {
			inc = 0
		}
		cwnd := r.w.Cwnd() + inc
		// Do not overshoot ssthresh within a single ACK.
		if cwnd > r.w.Ssthresh() && r.w.Cwnd() < r.w.Ssthresh() {
			cwnd = r.w.Ssthresh()
		}
		r.w.SetCwnd(cwnd)
		return
	}
	// Congestion avoidance by byte counting: accumulate acked bytes and
	// open the window one MSS per cwnd-worth of data acknowledged.
	r.caAccum += acked
	if r.caAccum >= r.w.Cwnd() {
		r.caAccum -= r.w.Cwnd()
		r.w.SetCwnd(r.w.Cwnd() + mss)
	}
}

// OnDupAck inflates the window by one MSS during recovery (each dup ACK
// signals a departed segment).
func (r *Reno) OnDupAck() {
	if r.inRecovery {
		r.w.SetCwnd(r.w.Cwnd() + int64(r.w.MSS()))
	}
}

// OnEnterRecovery performs the multiplicative decrease and initial
// inflation of fast recovery.
func (r *Reno) OnEnterRecovery() {
	mss := int64(r.w.MSS())
	ssthresh := max64(r.w.FlightSize()/2, 2*mss)
	r.recordMD(r.w.Ssthresh(), ssthresh)
	r.w.SetSsthresh(ssthresh)
	r.w.SetCwnd(ssthresh + 3*mss)
	r.inRecovery = true
	r.caAccum = 0
}

// OnPartialAck applies NewReno deflation: remove the acked bytes from the
// inflated window but grant one MSS for the retransmission it triggers.
func (r *Reno) OnPartialAck(acked int64) {
	mss := int64(r.w.MSS())
	cwnd := r.w.Cwnd() - acked + mss
	if cwnd < mss {
		cwnd = mss
	}
	r.w.SetCwnd(cwnd)
}

// OnExitRecovery deflates the window back to ssthresh.
func (r *Reno) OnExitRecovery() {
	r.inRecovery = false
	r.w.SetCwnd(r.w.Ssthresh())
	r.caAccum = 0
}

// OnRTO collapses to one segment and re-enters slow start (RFC 5681 §3.1).
func (r *Reno) OnRTO() {
	mss := int64(r.w.MSS())
	ssthresh := max64(r.w.FlightSize()/2, 2*mss)
	r.recordMD(r.w.Ssthresh(), ssthresh)
	r.w.SetSsthresh(ssthresh)
	r.w.SetCwnd(mss)
	r.inRecovery = false
	r.caAccum = 0
	r.cfg.SS.Reset(r.w)
}

// OnLocalStall applies the Linux 2.4 response to IFQ saturation: treat it
// as a congestion event (CWR-style) — halve into congestion avoidance, with
// no retransmission since nothing was lost.
func (r *Reno) OnLocalStall() {
	mss := int64(r.w.MSS())
	ssthresh := max64(r.w.FlightSize()/2, 2*mss)
	r.recordMD(r.w.Ssthresh(), ssthresh)
	r.w.SetSsthresh(ssthresh)
	r.w.SetCwnd(ssthresh)
	r.caAccum = 0
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
