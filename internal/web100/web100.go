// Package web100 provides per-connection extended TCP statistics in the
// spirit of the Web100 project (later RFC 4898, "TCP Extended Statistics
// MIB"). The paper used Web100 to observe send-stall signals and throughput;
// our experiment harness reads the same variables from this instrument set.
package web100

import (
	"fmt"
	"time"

	"rsstcp/internal/sim"
	"rsstcp/internal/unit"
)

// SndLimState identifies what bounded the sender during an interval,
// mirroring Web100's SndLimState* triple.
type SndLimState int

// Sender-limitation states.
const (
	// SndLimNone: nothing to send or not yet started.
	SndLimNone SndLimState = iota
	// SndLimCwnd: the congestion window was the binding constraint.
	SndLimCwnd
	// SndLimRwnd: the receiver's advertised window was binding.
	SndLimRwnd
	// SndLimSender: the local host was binding — out of data, or the
	// send path stalled on a full IFQ. Send-stall time lands here.
	SndLimSender
)

// String names the limitation state.
func (s SndLimState) String() string {
	switch s {
	case SndLimNone:
		return "none"
	case SndLimCwnd:
		return "cwnd"
	case SndLimRwnd:
		return "rwnd"
	case SndLimSender:
		return "sender"
	default:
		return fmt.Sprintf("SndLimState(%d)", int(s))
	}
}

// Stats is the per-connection instrument set at one instant, as a sender's
// Snapshot reports it. Field names follow RFC 4898 where one exists;
// SendStall is the Web100 variable at the heart of the paper.
type Stats struct {
	// --- segment counters ---
	SegsOut      int64 // total segments transmitted (incl. retransmits)
	DataSegsOut  int64 // segments carrying data
	SegsRetrans  int64 // retransmitted segments
	OctetsRetran int64 // retransmitted bytes
	SegsIn       int64 // segments received (ACKs at the sender)
	DupAcksIn    int64 // duplicate ACKs received
	SACKsRcvd    int64 // ACK segments carrying SACK blocks

	// --- progress ---
	ThruOctetsAcked int64 // bytes cumulatively acknowledged (goodput)
	DataOctetsOut   int64 // data bytes transmitted (incl. retransmits)

	// --- congestion signals ---
	CongSignals    int64 // total congestion episodes (all causes)
	FastRetran     int64 // fast-retransmit episodes
	Timeouts       int64 // retransmission timeouts
	SendStall      int64 // local send-stalls (IFQ full) — Figure 1's series
	LocalCongCwnd  int64 // cwnd collapses caused by send-stalls
	SlowStartExits int64 // times the sender left slow-start

	// --- window gauges (bytes) ---
	CurCwnd     int64
	MaxCwnd     int64
	CurSsthresh int64
	MinSsthresh int64
	CurRwnd     int64

	// --- RTT gauges ---
	SmoothedRTT time.Duration
	MinRTT      time.Duration
	MaxRTT      time.Duration
	CurRTO      time.Duration
	CountRTT    int64 // RTT samples taken

	// --- sender-limitation accounting ---
	SndLimTimeCwnd   time.Duration
	SndLimTimeRwnd   time.Duration
	SndLimTimeSender time.Duration
	SndLimTransCwnd  int64
	SndLimTransRwnd  int64
	SndLimTransSnd   int64

	// --- lifetime ---
	StartTime sim.Time
	EndTime   sim.Time // zero until the transfer completes
}

// Live is the instrument set as a sender keeps it between snapshots: every
// field of Stats, documented there, but six that would only copy state the
// sender holds anyway. SegsOut always equals DataSegsOut; CurCwnd,
// CurSsthresh, CurRwnd, SmoothedRTT and CurRTO are the sender's windows and
// RTT estimator, handed to Snapshot as Gauges.
type Live struct {
	DataSegsOut, SegsRetrans, OctetsRetran, SegsIn, DupAcksIn, SACKsRcvd int64
	ThruOctetsAcked, DataOctetsOut, CongSignals, FastRetran, Timeouts    int64
	SendStall, LocalCongCwnd, SlowStartExits, MaxCwnd, MinSsthresh       int64
	CountRTT, SndLimTransCwnd, SndLimTransRwnd, SndLimTransSnd           int64
	MinRTT, MaxRTT, SndLimTimeCwnd, SndLimTimeRwnd, SndLimTimeSender     time.Duration
	StartTime, EndTime, curLimSince                                      sim.Time
	curLim                                                               SndLimState
}

// Gauges are the current values of the gauges a Live block does not keep.
// Rwnd is the peer's last advertised window, 0 before the first ACK.
type Gauges struct {
	Cwnd, Ssthresh, Rwnd int64
	SRTT, RTO            time.Duration
}

// Init (re)initializes the instrument set in place for a connection that
// begins at start.
func (s *Live) Init(start sim.Time) {
	*s = Live{}
	s.StartTime, s.curLimSince = start, start
}

// ObserveRTT folds one RTT sample into the min/max gauges (the smoothed
// value is the sender's estimator, see Gauges). MinRTT reads 0 until the
// first sample: a real one never does, since every segment takes a
// serialization time.
func (s *Live) ObserveRTT(rtt time.Duration) {
	s.CountRTT++
	if s.MinRTT == 0 || rtt < s.MinRTT {
		s.MinRTT = rtt
	}
	if rtt > s.MaxRTT {
		s.MaxRTT = rtt
	}
}

// ObserveCwnd folds a new congestion window into MaxCwnd.
func (s *Live) ObserveCwnd(bytes int64) {
	if bytes > s.MaxCwnd {
		s.MaxCwnd = bytes
	}
}

// ObserveSsthresh folds a new slow-start threshold into MinSsthresh, which
// reads 0 until the first call: a real ssthresh is never below 2 MSS.
func (s *Live) ObserveSsthresh(bytes int64) {
	if s.MinSsthresh == 0 || bytes < s.MinSsthresh {
		s.MinSsthresh = bytes
	}
}

// SetSndLim transitions the sender-limitation state machine, charging the
// elapsed interval to the outgoing state.
func (s *Live) SetSndLim(state SndLimState, now sim.Time) {
	if state == s.curLim {
		return
	}
	s.chargeLim(now)
	s.curLim = state
	switch state {
	case SndLimCwnd:
		s.SndLimTransCwnd++
	case SndLimRwnd:
		s.SndLimTransRwnd++
	case SndLimSender:
		s.SndLimTransSnd++
	}
}

func (s *Live) chargeLim(now sim.Time) {
	d := now.Sub(s.curLimSince)
	if d < 0 {
		d = 0
	}
	switch s.curLim {
	case SndLimCwnd:
		s.SndLimTimeCwnd += d
	case SndLimRwnd:
		s.SndLimTimeRwnd += d
	case SndLimSender:
		s.SndLimTimeSender += d
	}
	s.curLimSince = now
}

// Finish marks the connection complete and closes the limitation interval.
func (s *Live) Finish(now sim.Time) {
	s.chargeLim(now)
	s.EndTime = now
}

// Snapshot returns the full instrument set as of now: the live block with
// the in-progress limitation interval charged up to now, so time accounting
// is current, and the gauges g.
func (s *Live) Snapshot(now sim.Time, g Gauges) Stats {
	c := *s
	if now.Sub(c.curLimSince) > 0 {
		c.chargeLim(now)
	}
	return Stats{
		SegsOut: c.DataSegsOut, DataSegsOut: c.DataSegsOut, SegsRetrans: c.SegsRetrans,
		OctetsRetran: c.OctetsRetran, SegsIn: c.SegsIn, DupAcksIn: c.DupAcksIn, SACKsRcvd: c.SACKsRcvd,
		ThruOctetsAcked: c.ThruOctetsAcked, DataOctetsOut: c.DataOctetsOut,
		CongSignals: c.CongSignals, FastRetran: c.FastRetran, Timeouts: c.Timeouts,
		SendStall: c.SendStall, LocalCongCwnd: c.LocalCongCwnd, SlowStartExits: c.SlowStartExits,
		CurCwnd: g.Cwnd, MaxCwnd: c.MaxCwnd, CurSsthresh: g.Ssthresh, MinSsthresh: c.MinSsthresh,
		CurRwnd: g.Rwnd, SmoothedRTT: g.SRTT, MinRTT: c.MinRTT, MaxRTT: c.MaxRTT, CurRTO: g.RTO,
		CountRTT: c.CountRTT, SndLimTimeCwnd: c.SndLimTimeCwnd,
		SndLimTimeRwnd: c.SndLimTimeRwnd, SndLimTimeSender: c.SndLimTimeSender,
		SndLimTransCwnd: c.SndLimTransCwnd, SndLimTransRwnd: c.SndLimTransRwnd, SndLimTransSnd: c.SndLimTransSnd,
		StartTime: c.StartTime, EndTime: c.EndTime,
	}
}

// Elapsed returns the connection lifetime as of now (or of completion).
func (s *Stats) Elapsed(now sim.Time) time.Duration {
	end := now
	if s.EndTime != 0 {
		end = s.EndTime
	}
	return end.Sub(s.StartTime)
}

// Throughput returns goodput (acked bytes over lifetime) as of now.
func (s *Stats) Throughput(now sim.Time) unit.Bandwidth {
	return unit.Throughput(unit.ByteSize(s.ThruOctetsAcked), s.Elapsed(now))
}

// Export is the JSON shape of a Stats snapshot: RFC 4898-style names in
// snake_case, durations in nanoseconds, zero-valued counters (and an unset
// MinRTT or MinSsthresh) elided, lifetime and transition counts left out. It
// is the per-flow "web100" block of campaign replicate exports. Its fields
// are Stats's, in order, so Export(st) converts a snapshot; Stats itself
// stays untagged because experiment.Result serializes it under the Go names.
type Export struct {
	SegsOut          int64         `json:"segs_out,omitempty"`
	DataSegsOut      int64         `json:"data_segs_out,omitempty"`
	SegsRetrans      int64         `json:"segs_retrans,omitempty"`
	OctetsRetran     int64         `json:"octets_retrans,omitempty"`
	SegsIn           int64         `json:"segs_in,omitempty"`
	DupAcksIn        int64         `json:"dup_acks_in,omitempty"`
	SACKsRcvd        int64         `json:"sacks_rcvd,omitempty"`
	ThruOctetsAcked  int64         `json:"thru_octets_acked,omitempty"`
	DataOctetsOut    int64         `json:"data_octets_out,omitempty"`
	CongSignals      int64         `json:"cong_signals,omitempty"`
	FastRetran       int64         `json:"fast_retran,omitempty"`
	Timeouts         int64         `json:"timeouts,omitempty"`
	SendStall        int64         `json:"send_stall,omitempty"`
	LocalCongCwnd    int64         `json:"local_cong_cwnd,omitempty"`
	SlowStartExits   int64         `json:"slow_start_exits,omitempty"`
	CurCwnd          int64         `json:"cur_cwnd,omitempty"`
	MaxCwnd          int64         `json:"max_cwnd,omitempty"`
	CurSsthresh      int64         `json:"cur_ssthresh,omitempty"`
	MinSsthresh      int64         `json:"min_ssthresh,omitempty"`
	CurRwnd          int64         `json:"cur_rwnd,omitempty"`
	SmoothedRTT      time.Duration `json:"srtt_ns,omitempty"`
	MinRTT           time.Duration `json:"min_rtt_ns,omitempty"`
	MaxRTT           time.Duration `json:"max_rtt_ns,omitempty"`
	CurRTO           time.Duration `json:"cur_rto_ns,omitempty"`
	CountRTT         int64         `json:"count_rtt,omitempty"`
	SndLimTimeCwnd   time.Duration `json:"snd_lim_time_cwnd_ns,omitempty"`
	SndLimTimeRwnd   time.Duration `json:"snd_lim_time_rwnd_ns,omitempty"`
	SndLimTimeSender time.Duration `json:"snd_lim_time_sender_ns,omitempty"`
	SndLimTransCwnd  int64         `json:"-"`
	SndLimTransRwnd  int64         `json:"-"`
	SndLimTransSnd   int64         `json:"-"`
	StartTime        sim.Time      `json:"-"`
	EndTime          sim.Time      `json:"-"`
}
