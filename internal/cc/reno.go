package cc

import "rsstcp/internal/telemetry"

// RenoConfig parameterizes the Reno controller. Controllers built with Init
// hold a pointer to it, so one config serves every connection configured
// alike; it must stay unchanged while a controller on it runs.
type RenoConfig struct {
	// IW is the initial window in segments. The 2.4-kernel era default
	// is 2 (RFC 2581); RFC 3390 permits up to 4.
	IW int
	// InitialSsthresh is the starting slow-start threshold in bytes;
	// effectively infinite by default, as in Linux.
	InitialSsthresh int64
	// FR, when non-nil, is the flight recorder the controllers record their
	// multiplicative decreases in (KindMD, old/new ssthresh).
	FR *telemetry.FlightRecorder
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
	cfg     *RenoConfig     // shared, read-only
	ss      SlowStartPolicy // the active slow-start policy
	w       Window
	caAccum int64 // byte-counting accumulator for congestion avoidance

	flow       int32 // the flow its flight-recorder entries name
	inRecovery bool
}

// NewReno returns a standard slow-start Reno controller on a private copy of
// cfg, whose zero IW and InitialSsthresh take DefaultRenoConfig's values.
// Init picks any other slow-start policy.
func NewReno(cfg RenoConfig) *Reno {
	cfg.fillDefaults()
	r := new(Reno)
	r.Init(&cfg, nil, 0)
	return r
}

// fillDefaults fills zero IW and InitialSsthresh from DefaultRenoConfig.
func (c *RenoConfig) fillDefaults() {
	def := DefaultRenoConfig()
	if c.IW <= 0 {
		c.IW = def.IW
	}
	if c.InitialSsthresh <= 0 {
		c.InitialSsthresh = def.InitialSsthresh
	}
}

// Init (re)initializes the controller in place, unattached, on cfg, which
// must be filled (DefaultRenoConfig, or NewReno's copy). ss is this
// connection's slow-start policy (nil: StdSlowStart), and flow
// names the connection in cfg.FR. Nothing of a previous use survives.
func (r *Reno) Init(cfg *RenoConfig, ss SlowStartPolicy, flow int32) {
	if ss == nil {
		ss = StdSlowStart{}
	}
	*r = Reno{cfg: cfg, ss: ss, flow: flow}
}

// Name identifies the controller and its slow-start policy.
func (r *Reno) Name() string { return "reno/" + r.ss.Name() }

// Attach initializes cwnd and ssthresh on the sender's window.
func (r *Reno) Attach(w Window) {
	r.w = w
	w.SetCwnd(int64(r.cfg.IW) * int64(w.MSS()))
	w.SetSsthresh(r.cfg.InitialSsthresh)
	r.ss.Reset(w)
}

// recordMD records one multiplicative decrease, old → new ssthresh.
func (r *Reno) recordMD(oldThresh, newThresh int64) {
	r.cfg.FR.Record(r.w.Now(), telemetry.KindMD, r.flow, -1, oldThresh, newThresh)
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
		inc := r.ss.Advance(r.w, acked)
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
	ssthresh := max(r.w.FlightSize()/2, 2*mss)
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
	ssthresh := max(r.w.FlightSize()/2, 2*mss)
	r.recordMD(r.w.Ssthresh(), ssthresh)
	r.w.SetSsthresh(ssthresh)
	r.w.SetCwnd(mss)
	r.inRecovery = false
	r.caAccum = 0
	r.ss.Reset(r.w)
}

// OnLocalStall applies the Linux 2.4 response to IFQ saturation: treat it
// as a congestion event (CWR-style) — halve into congestion avoidance, with
// no retransmission since nothing was lost.
func (r *Reno) OnLocalStall() {
	mss := int64(r.w.MSS())
	ssthresh := max(r.w.FlightSize()/2, 2*mss)
	r.recordMD(r.w.Ssthresh(), ssthresh)
	r.w.SetSsthresh(ssthresh)
	r.w.SetCwnd(ssthresh)
	r.caAccum = 0
}
