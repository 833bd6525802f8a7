package tcp

import (
	"time"

	"rsstcp/internal/cc"
	"rsstcp/internal/packet"
	"rsstcp/internal/sim"
	"rsstcp/internal/telemetry"
	"rsstcp/internal/web100"
)

// sentRecord tracks one transmitted, not-yet-acknowledged segment.
type sentRecord struct {
	seq     int64
	sentAt  sim.Time
	length  int32
	rtx     bool // retransmission: excluded from RTT sampling (Karn)
	sacked  bool // covered by a received SACK block
	rtxDone bool // retransmitted during the current recovery episode
}

func (r *sentRecord) end() int64 { return r.seq + int64(r.length) }

// live returns the outstanding window: the records not yet consumed by a
// cumulative ACK. Pointers into it stay valid until the next append or
// popAcked compaction.
func (s *Sender) live() []sentRecord { return s.segs[s.segHead:] }

// Sender is the TCP sending side. It implements cc.Window for its
// congestion controller and netem.Receiver for the incoming ACK stream.
//
// The window and sequence state an ACK reads and writes sits at the front,
// beside the wiring it reaches through. What every connection of a
// simulation shares — engine, flight recorder, stall and completion hooks —
// sits in the shared Config.
type Sender struct {
	cfg  *Config // shared with every endpoint configured alike; read-only
	flow packet.FlowID
	gen  uint32 // stamped on every segment sent (see Init)
	ctrl cc.Controller
	path TransmitPath

	// window state (bytes)
	cwnd     int64
	ssthresh int64
	rwnd     int64 // peer's advertised window, from ACKs

	// sequence state (the high-water mark is maxSent's)
	sndUna   int64
	sndNxt   int64
	supplied int64 // bytes the application has made available

	// SACK scoreboard aggregates
	sackedBytes int64 // bytes of outstanding records marked SACKed
	fack        int64 // forward ACK: highest SACKed sequence end
	rtxOut      int64 // retransmitted bytes not yet (S)ACKed

	segHead int32 // live-window head index into segs (see live)
	dupAcks int32 // duplicate ACKs since the last advance of snd.una

	stats web100.Live

	// Outstanding records, ordered by seq, live in segs[segHead:]. ACKs
	// consume from the front by advancing segHead (with amortized
	// compaction) instead of copying the surviving window down — at
	// paper-path windows a per-ACK copy moved the whole flight every ACK
	// and dominated the profile's memmove time. The array
	// follows the window, not the connection's age: an ACK that empties
	// the list rewinds it, a full array slides before it grows (trySend).
	segs []sentRecord

	est     rttEstimator
	rto     sim.Timer
	lastRTT time.Duration // most recent raw sample, for delay heuristics

	// loss recovery
	recover      int64  // NewReno recovery point
	rtxHigh      int64  // segments below this are retransmissions (Karn)
	stallCwrHigh int64  // suppress repeated stall-congestion until una passes
	resumeFn     func() // the waker callback, bound once (no per-stall closure)

	// The flags sit together at the end, where they share one word.
	closed     bool // application will supply no more
	inRecovery bool
	rtxPending bool // a fast-retransmit segment is waiting for IFQ room
	wakerArmed bool // a resume waker is registered with the NIC
	finished   bool
	retired    bool // window state retired (Retire): accessors read 0
}

// NewSender wires a sender to its congestion controller and transmit path
// on a private copy of cfg, whose zero fields take DefaultConfig's values
// and whose engine is eng. The controller is attached (initializing
// cwnd/ssthresh) immediately.
func NewSender(eng *sim.Engine, cfg Config, flow packet.FlowID, ctrl cc.Controller, path TransmitPath) *Sender {
	cfg.fillDefaults()
	cfg.Eng = eng
	s := new(Sender)
	s.Init(&cfg, flow, 0, ctrl, path)
	return s
}

// Init (re)initializes the sender in place as a fresh connection and
// attaches the controller. A used sender keeps only storage — its record
// list's backing array, its resume callback — and nothing of the previous
// connection's state, hooks or Web100 counters (that block is held by value
// and zeroed with the rest), so a recycled sender behaves exactly like a new
// one and costs no allocation.
//
// cfg is held, not copied: it must be filled (DefaultConfig with a Pool and
// an Eng, or NewSender's copy) and stay unchanged while the sender
// runs. gen is stamped on every segment sent (packet.Segment.Gen): scenarios
// that recycle FlowIDs give each incarnation a fresh one, so their
// demultiplexers can tell a stray segment of a dead flow from the ID's
// current owner (zero never recycles).
func (s *Sender) Init(cfg *Config, flow packet.FlowID, gen uint32, ctrl cc.Controller, path TransmitPath) {
	if ctrl == nil {
		panic("tcp: sender with nil controller")
	}
	if path == nil {
		panic("tcp: sender with nil transmit path")
	}
	segs, resumeFn := s.segs[:0], s.resumeFn
	if resumeFn == nil {
		resumeFn = func() {
			s.wakerArmed = false
			s.trySend()
		}
	}
	*s = Sender{} // zero, then set: a literal that reads s is built aside and copied
	s.cfg, s.flow, s.gen, s.ctrl, s.path = cfg, flow, gen, ctrl, path
	s.segs, s.resumeFn = segs, resumeFn
	s.est = rttEstimator{rto: cfg.InitialRTO}
	s.stats.Init(cfg.Eng.Now())
	s.rwnd = cfg.RcvWnd
	s.rto.InitHook(cfg.Eng, cfg.Wheel, (*rtoExpiry)(s))
	ctrl.Attach(s)
}

// Flow returns the connection's flow ID.
func (s *Sender) Flow() packet.FlowID { return s.flow }

// Path returns the transmit path the sender sends through.
func (s *Sender) Path() TransmitPath { return s.path }

// Retire retires a finished (completed or stopped) sender's window state:
// after the call the window and sequence accessors and Snapshot's window
// gauges read zero, as for a flow that no longer exists, until Init makes
// the sender a new connection. It panics on a running sender. Idempotent.
// (Not Release: Engine.Reset calls Release on the event arguments it
// discards.)
func (s *Sender) Retire() {
	if !s.finished {
		panic("tcp: Retire on a sender that is still running")
	}
	s.retired = true
}

// WakerArmed reports whether the transmit path still holds this sender's
// resume callback. The callback outlives Stop, so a sender in that state must
// not be re-initialized while the engine runs: the wake would land on the
// next connection.
func (s *Sender) WakerArmed() bool { return s.wakerArmed }

// ShedRecords drops a record list whose backing array outgrew n records, so
// a sender parked for reuse holds a bounded amount; the next connection grows
// its own.
func (s *Sender) ShedRecords(n int) {
	if cap(s.segs) > n {
		s.segs = nil
	}
}

// RecordCap returns the capacity, in records, of the record list's backing
// array.
func (s *Sender) RecordCap() int { return cap(s.segs) }

// --- cc.Window implementation ---

// MSS returns the segment payload size.
func (s *Sender) MSS() int { return s.cfg.MSS }

// Cwnd returns the congestion window in bytes (0 once retired).
func (s *Sender) Cwnd() int64 {
	if s.retired {
		return 0
	}
	return s.cwnd
}

// SetCwnd sets the congestion window, clamped to at least one MSS.
func (s *Sender) SetCwnd(b int64) {
	if b < int64(s.cfg.MSS) {
		b = int64(s.cfg.MSS)
	}
	// The initial window (Attach, on a window that starts at zero) is not a
	// change: the recorder logs the window's moves, not its creation.
	if old := s.cwnd; old != 0 && b != old {
		s.cfg.FR.Record(s.Now(), telemetry.KindCwnd, int32(s.flow), -1, old, b)
	}
	s.cwnd = b
	s.stats.ObserveCwnd(b)
}

// Ssthresh returns the slow-start threshold in bytes (0 once retired).
func (s *Sender) Ssthresh() int64 {
	if s.retired {
		return 0
	}
	return s.ssthresh
}

// SetSsthresh sets the slow-start threshold, clamped to >= 2 MSS.
func (s *Sender) SetSsthresh(b int64) {
	if b < 2*int64(s.cfg.MSS) {
		b = 2 * int64(s.cfg.MSS)
	}
	s.ssthresh = b
	s.stats.ObserveSsthresh(b)
}

// FlightSize returns the outstanding bytes (snd.nxt - snd.una; 0 once
// retired).
func (s *Sender) FlightSize() int64 {
	if s.retired {
		return 0
	}
	return s.sndNxt - s.sndUna
}

// SRTT returns the smoothed RTT (0 before the first sample).
func (s *Sender) SRTT() time.Duration { return s.est.SRTT() }

// LastRTT returns the most recent raw RTT sample (0 before the first).
func (s *Sender) LastRTT() time.Duration { return s.lastRTT }

// Now returns the current virtual time.
func (s *Sender) Now() sim.Time { return s.cfg.Eng.Now() }

// --- application interface ---

// Supply makes n more bytes available to transmit and kicks the sender.
func (s *Sender) Supply(n int64) {
	if n <= 0 || s.finished {
		return
	}
	s.supplied += n
	s.trySend()
}

// Close declares that no more data will be supplied; when everything
// outstanding is acknowledged the transfer completes.
func (s *Sender) Close() {
	s.closed = true
	s.checkComplete()
}

// Finished reports whether the transfer has completed.
func (s *Sender) Finished() bool { return s.finished }

// Stats returns the live Web100-style instrument set: counters and the
// gauges the sender does not hold elsewhere.
func (s *Sender) Stats() *web100.Live { return &s.stats }

// Snapshot returns the full Web100 instrument set as of now, its window and
// RTT gauges read from the sender's own state (zero windows once retired).
func (s *Sender) Snapshot(now sim.Time) web100.Stats {
	g := web100.Gauges{Cwnd: s.Cwnd(), Ssthresh: s.Ssthresh(), SRTT: s.est.SRTT(), RTO: s.est.RTO()}
	if !s.retired && s.stats.SegsIn > 0 {
		g.Rwnd = s.rwnd
	}
	return s.stats.Snapshot(now, g)
}

// Controller returns the attached congestion controller.
func (s *Sender) Controller() cc.Controller { return s.ctrl }

// SndUna returns the oldest unacknowledged sequence number.
func (s *Sender) SndUna() int64 {
	if s.retired {
		return 0
	}
	return s.sndUna
}

// SndNxt returns the next sequence number to be sent.
func (s *Sender) SndNxt() int64 {
	if s.retired {
		return 0
	}
	return s.sndNxt
}

// InRecovery reports whether fast recovery is in progress.
func (s *Sender) InRecovery() bool { return s.inRecovery }

// RTO returns the current retransmission timeout value.
func (s *Sender) RTO() time.Duration { return s.est.RTO() }

// --- transmission ---

// maxSent returns the transmission high-water mark, which survives an RTO's
// rewind of snd.nxt: the RTO raises rtxHigh to snd.nxt before the rewind,
// snd.nxt only passes rtxHigh again by sending, and an ACK moves it up to at
// most the mark, so the mark is always the larger of the two.
func (s *Sender) maxSent() int64 { return max(s.rtxHigh, s.sndNxt) }

// trySend transmits as much as windows, data and the IFQ allow.
func (s *Sender) trySend() {
	if s.finished {
		return
	}
	// A pending fast retransmission goes out ahead of new data.
	if s.rtxPending {
		if !s.sendRetransmit() {
			return // stalled; waker re-enters
		}
		s.rtxPending = false
	}
	// With SACK, recovery fills every known hole as pipe room allows
	// (RFC 6675 flavour) instead of one retransmission per RTT.
	if s.inRecovery && s.cfg.SACK {
		if !s.sendSACKRetransmissions() {
			return
		}
	}
	burst := 0
	for {
		if burst >= maxBurst {
			// Burst cap: later ACKs (or the NIC waker) release more.
			return
		}
		avail := s.supplied - s.sndNxt
		if avail <= 0 {
			// Nothing from the application: sender-limited.
			s.stats.SetSndLim(web100.SndLimSender, s.Now())
			return
		}
		n := int(min(int64(s.cfg.MSS), avail))
		// No RFC 3042 limited transmit: duplicate ACKs release no new data.
		wnd := min(s.cwnd, s.rwnd)
		inFlight := s.FlightSize()
		if s.inRecovery && s.cfg.SACK {
			// RFC 6675: during SACK recovery transmission is governed
			// by the pipe estimate, not raw flight (which still counts
			// lost segments).
			inFlight = s.pipe()
		}
		if inFlight+int64(n) > wnd {
			if s.cwnd <= s.rwnd {
				s.stats.SetSndLim(web100.SndLimCwnd, s.Now())
			} else {
				s.stats.SetSndLim(web100.SndLimRwnd, s.Now())
			}
			return
		}
		seq := s.sndNxt
		rtx := seq < s.rtxHigh
		if !s.send(seq, n, rtx) {
			return
		}
		// Slide before growing, when the dead prefix is at least as long as
		// the window. A deep window (head*2 < len) fails the guard and
		// grows, so the copy stays amortized O(1) per record.
		if head := int(s.segHead); len(s.segs) == cap(s.segs) && head > 0 && head*2 >= len(s.segs) {
			s.segs = s.segs[:copy(s.segs, s.segs[head:])]
			s.segHead = 0
		}
		s.segs = append(s.segs, sentRecord{seq: seq, sentAt: s.Now(), length: int32(n), rtx: rtx})
		s.sndNxt += int64(n)
		burst++
		if !s.rto.Armed() {
			s.rto.Arm(s.est.RTO())
		}
	}
}

// send builds and transmits one segment of n bytes at seq and counts it. On
// a full IFQ it releases the segment, handles the stall and returns false.
func (s *Sender) send(seq int64, n int, rtx bool) bool {
	seg := s.cfg.Pool.Get()
	seg.Flow = s.flow
	seg.Gen = s.gen
	seg.Seq = seq
	seg.Len = n
	seg.Flags = packet.FlagACK
	seg.Wnd = s.cfg.RcvWnd
	seg.SentAt = s.Now()
	seg.Retransmit = rtx
	if !s.path.Send(seg) {
		seg.Release()
		s.onSendStall()
		return false
	}
	s.stats.DataSegsOut++
	s.stats.DataOctetsOut += int64(n)
	if rtx {
		s.stats.SegsRetrans++
		s.stats.OctetsRetran += int64(n)
	}
	return true
}

// resend retransmits rec and marks it as retransmitted during this recovery
// episode. It returns false when the IFQ stalled the attempt.
func (s *Sender) resend(rec *sentRecord) bool {
	if !s.send(rec.seq, int(rec.length), true) {
		return false
	}
	rec.rtx = true
	rec.rtxDone = true
	rec.sentAt = s.Now()
	s.rtxOut += int64(rec.length)
	return true
}

// onSendStall handles a full IFQ: record the signal, optionally collapse
// the window (Linux 2.4 behaviour), and arm the waker to resume.
func (s *Sender) onSendStall() {
	s.stats.SendStall++
	s.stats.SetSndLim(web100.SndLimSender, s.Now())
	s.cfg.FR.Record(s.Now(), telemetry.KindStall, int32(s.flow), -1, s.sndNxt, s.cwnd)
	if s.cfg.OnStall != nil {
		s.cfg.OnStall(s)
	}
	if s.cfg.Stall == StallCongestion && s.sndUna >= s.stallCwrHigh {
		// At most one window collapse per RTT: suppress further stall
		// signals until the current flight is acknowledged.
		s.stallCwrHigh = s.sndNxt
		s.stats.CongSignals++
		s.stats.LocalCongCwnd++
		wasSS := s.ctrl.InSlowStart()
		s.ctrl.OnLocalStall()
		if wasSS && !s.ctrl.InSlowStart() {
			s.stats.SlowStartExits++
			s.cfg.FR.Record(s.Now(), telemetry.KindSlowStartExit, int32(s.flow), -1, s.cwnd, s.ssthresh)
		}
	}
	// One waker at a time: several code paths (each arriving ACK, the
	// retransmit path) can hit a stall before the NIC drains.
	if !s.wakerArmed {
		s.wakerArmed = true
		s.path.SetWaker(s.resumeFn)
	}
}

// sendRetransmit re-sends the first unacknowledged (and, with SACK, not yet
// SACKed) segment. It returns false when the IFQ stalled the attempt.
func (s *Sender) sendRetransmit() bool {
	rec := s.firstRetransmittable()
	return rec == nil || s.resend(rec)
}

// sackRepairBurst caps hole repairs per ACK event. Each duplicate ACK
// signals one delivered segment, so two retransmissions per ACK is already
// 2x the delivered rate (rate-halving flavour); more floods the congested
// bottleneck with retransmissions that are then dropped themselves,
// forcing the RTO the repair was meant to avoid.
const sackRepairBurst = 2

// sendSACKRetransmissions resends unSACKed holes below the recovery point
// while the FACK pipe estimate leaves window room, bounded by the repair
// burst cap — later ACKs continue the repair.
// It returns false when the IFQ stalled the attempt.
func (s *Sender) sendSACKRetransmissions() bool {
	burst := 0
	// A retransmission that has not been SACKed within ~1.5 smoothed RTTs
	// was itself lost; re-arm it rather than waiting out the RTO.
	stale := 3 * s.est.SRTT() / 2
	if stale <= 0 {
		stale = s.cfg.MinRTO
	}
	now := s.Now()
	live := s.live()
	for i := range live {
		rec := &live[i]
		if burst >= sackRepairBurst {
			break
		}
		if rec.seq >= s.recover {
			break
		}
		if rec.sacked {
			continue
		}
		if rec.rtxDone && now.Sub(rec.sentAt) <= stale {
			continue
		}
		if rec.rtxDone {
			// Lost retransmission: it is no longer in the pipe.
			s.rtxOut -= int64(rec.length)
		}
		if s.pipe()+int64(rec.length) > min(s.cwnd, s.rwnd) {
			break
		}
		if !s.resend(rec) {
			return false
		}
		burst++
	}
	return true
}

// pipe estimates the bytes actually in the network, FACK-style: everything
// above the forward ACK is presumed in flight; below it only segments we
// have retransmitted count — the unSACKed remainder is presumed lost.
// Counting lost bytes as in-flight (the naive flight − sacked) starves deep
// -loss recovery behind the window check.
func (s *Sender) pipe() int64 {
	high := max(s.fack, s.sndUna)
	inFlight := max(s.sndNxt-high, 0)
	return inFlight + s.rtxOut
}

// firstRetransmittable returns a pointer into s.segs; it is only valid
// until the next append or compaction of the record list.
func (s *Sender) firstRetransmittable() *sentRecord {
	live := s.live()
	for i := range live {
		rec := &live[i]
		if rec.rtxDone || (s.cfg.SACK && rec.sacked) {
			continue
		}
		return rec
	}
	return nil
}

// --- ACK processing (netem.Receiver) ---

// Receive processes an incoming ACK segment and releases it.
func (s *Sender) Receive(seg *packet.Segment) {
	if s.finished || !seg.Flags.Has(packet.FlagACK) {
		seg.Release()
		return
	}
	s.stats.SegsIn++
	s.rwnd = seg.Wnd
	newSACK := int64(0)
	if s.cfg.SACK && len(seg.SACK) > 0 {
		s.stats.SACKsRcvd++
		newSACK = s.applySACK(seg.SACK)
	}
	switch {
	case seg.Ack > s.maxSent():
		// Acks data never sent: ignore. (Acks above the post-RTO sndNxt
		// but within the pre-RTO flight are legitimate — the receiver
		// had the data all along.)
	case seg.Ack > s.sndUna:
		s.onNewAck(seg.Ack)
	case seg.Ack == s.sndUna && s.FlightSize() > 0 && seg.IsPureAck():
		// With SACK, a duplicate ACK only signals a missing segment if
		// it carries new scoreboard information; echoes of duplicate
		// arrivals (e.g. from go-back-N resends) carry none and are
		// ignored, as in Linux.
		if !s.cfg.SACK || newSACK > 0 {
			s.onDupAck()
		}
	}
	// The sender is the ACK's terminal consumer; every field has been read.
	seg.Release()
	s.trySend()
}

func (s *Sender) onNewAck(ack int64) {
	acked := ack - s.sndUna
	s.sndUna = ack
	if s.sndNxt < ack {
		// An ACK above the rewound sndNxt (post-RTO): the receiver held
		// the data; skip ahead rather than resending it.
		s.sndNxt = ack
	}
	s.stats.ThruOctetsAcked += acked
	if sample, ok := s.popAcked(ack); ok {
		s.est.Update(sample, s.cfg)
		s.lastRTT = sample
		s.stats.ObserveRTT(sample)
	}
	if s.inRecovery {
		if ack >= s.recover {
			s.inRecovery = false
			s.dupAcks = 0
			live := s.live()
			for i := range live {
				live[i].rtxDone = false
			}
			s.ctrl.OnExitRecovery()
		} else {
			if !s.cfg.SACK {
				// NewReno partial ACK: deflate and retransmit the next
				// hole — the partial ACK is its only signal. With SACK
				// the scoreboard repair path covers both roles, and
				// NewReno deflation (cwnd -= acked) would collapse the
				// window when batch repairs produce large jumps.
				s.ctrl.OnPartialAck(acked)
				s.rtxPending = true
			}
			s.rto.Arm(s.est.RTO()) // restart for the retransmission
		}
	} else {
		s.dupAcks = 0
		wasSS := s.ctrl.InSlowStart()
		s.ctrl.OnAck(acked)
		if wasSS && !s.ctrl.InSlowStart() {
			s.stats.SlowStartExits++
			s.cfg.FR.Record(s.Now(), telemetry.KindSlowStartExit, int32(s.flow), -1, s.cwnd, s.ssthresh)
		}
	}
	if s.FlightSize() == 0 {
		s.rto.Stop()
	} else {
		s.rto.Arm(s.est.RTO())
	}
	s.checkComplete()
}

func (s *Sender) onDupAck() {
	s.dupAcks++
	s.stats.DupAcksIn++
	switch {
	case s.inRecovery:
		// Window inflation is NewReno's stand-in for knowing what left
		// the network; with SACK the pipe estimate carries that role
		// and inflation would just flood the congested link.
		if !s.cfg.SACK {
			s.ctrl.OnDupAck()
		}
	case s.dupAcks == dupThresh:
		// RFC 6582 "careful" variant (non-SACK): duplicate ACKs at or
		// below the previous recovery point are echoes of segments
		// retransmitted during that recovery; re-entering would cut the
		// window twice for one loss event. SACK flows discriminate via
		// new-scoreboard-information instead (see Receive).
		if !s.cfg.SACK && s.sndUna <= s.recover && s.recover > 0 {
			return
		}
		s.enterRecovery()
	}
}

func (s *Sender) enterRecovery() {
	s.inRecovery = true
	s.recover = s.sndNxt
	s.stats.CongSignals++
	s.stats.FastRetran++
	s.cfg.FR.Record(s.Now(), telemetry.KindLossDetect, int32(s.flow), -1, s.sndUna, s.recover)
	wasSS := s.ctrl.InSlowStart()
	s.ctrl.OnEnterRecovery()
	if wasSS {
		s.stats.SlowStartExits++
		s.cfg.FR.Record(s.Now(), telemetry.KindSlowStartExit, int32(s.flow), -1, s.cwnd, s.ssthresh)
	}
	s.rtxPending = true
	s.rto.Arm(s.est.RTO())
}

// popAcked removes records fully covered by ack and returns an RTT sample
// from the most recent non-retransmitted one (Karn's rule).
func (s *Sender) popAcked(ack int64) (time.Duration, bool) {
	var sample time.Duration
	ok := false
	live := s.live()
	i := 0
	for ; i < len(live); i++ {
		rec := &live[i]
		if rec.end() > ack {
			break
		}
		if rec.sacked {
			s.sackedBytes -= int64(rec.length)
		} else if rec.rtxDone {
			s.rtxOut -= int64(rec.length)
		}
		// RTT samples come only from records that are neither
		// retransmissions (Karn) nor previously SACKed: a SACKed record
		// was delivered when its SACK arrived, not when the cumulative
		// ACK finally covered it after hole repair.
		if !rec.rtx && !rec.sacked {
			sample = s.Now().Sub(rec.sentAt)
			ok = true
		}
	}
	// Consume the acked prefix by advancing the window head; compact the
	// backing array only once the dead prefix dominates (amortized O(1)).
	head := int(s.segHead) + i
	if head == len(s.segs) {
		s.segs, head = s.segs[:0], 0 // everything acked: rewind, nothing to copy
	} else if head > 64 && head*2 >= len(s.segs) {
		n := copy(s.segs, s.segs[head:])
		s.segs = s.segs[:n]
		head = 0
	}
	s.segHead = int32(head)
	// Partial coverage of the front record (ack inside a segment) cannot
	// happen with MSS-aligned acks, but trim defensively.
	if live = s.live(); len(live) > 0 && live[0].seq < ack {
		rec := &live[0]
		delta := ack - rec.seq
		rec.seq = ack
		rec.length -= int32(delta)
	}
	return sample, ok
}

// applySACK marks records covered by the blocks as SACKed and returns the
// number of newly covered bytes (zero for a SACK that repeats known state).
func (s *Sender) applySACK(blocks []packet.SACKBlock) int64 {
	var fresh int64
	live := s.live()
	for _, b := range blocks {
		for i := range live {
			rec := &live[i]
			if !rec.sacked && rec.seq >= b.Start && rec.end() <= b.End {
				rec.sacked = true
				s.sackedBytes += int64(rec.length)
				fresh += int64(rec.length)
				if rec.rtxDone {
					s.rtxOut -= int64(rec.length)
				}
				s.fack = max(s.fack, rec.end())
			}
		}
	}
	return fresh
}

// --- RTO ---

// rtoExpiry is the sender as its retransmission timer's hook.
type rtoExpiry Sender

func (h *rtoExpiry) Fire() { (*Sender)(h).onRTO() }

func (s *Sender) onRTO() {
	if s.finished || s.FlightSize() == 0 {
		return
	}
	s.stats.Timeouts++
	s.stats.CongSignals++
	s.cfg.FR.Record(s.Now(), telemetry.KindRTO, int32(s.flow), -1, s.sndUna, s.sndNxt-s.sndUna)
	s.ctrl.OnRTO()
	s.est.Backoff(s.cfg)
	// Go-back-N: everything beyond snd.una is resent under the collapsed
	// window; mark the range so Karn's rule skips its RTT samples.
	s.rtxHigh = max(s.rtxHigh, s.sndNxt)
	s.sndNxt = s.sndUna
	s.segs = s.segs[:0]
	s.segHead = 0
	s.sackedBytes = 0
	s.fack = s.sndUna
	s.rtxOut = 0
	s.dupAcks = 0
	s.inRecovery = false
	s.rtxPending = false
	s.rto.Arm(s.est.RTO())
	s.trySend()
}

func (s *Sender) checkComplete() {
	if s.finished || !s.closed || s.sndUna < s.supplied {
		return
	}
	s.finished = true
	s.rto.Stop()
	s.stats.SetSndLim(web100.SndLimNone, s.Now())
	s.stats.Finish(s.Now())
	if s.cfg.OnComplete != nil {
		s.cfg.OnComplete(s)
	}
}

// Stop force-finishes the sender for detach: further supplies, sends and
// ACK processing become no-ops and the RTO timer is cancelled, so a
// detached sender holds no live calendar entries. Segments already in
// flight are released wherever they land (the demux drops unroutable
// ones). OnComplete does not fire — Stop is the teardown path for flows
// that did not run to byte-completion. Idempotent, and a no-op after
// normal completion.
func (s *Sender) Stop() {
	if s.finished {
		return
	}
	s.finished = true
	s.rto.Stop()
	s.stats.SetSndLim(web100.SndLimNone, s.Now())
	s.stats.Finish(s.Now())
}
