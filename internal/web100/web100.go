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

// Stats is the per-connection instrument set. The sender updates it inline;
// readers take Snapshot copies. Field names follow RFC 4898 where one
// exists; SendStall is the Web100 variable at the heart of the paper.
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

	curLim      SndLimState
	curLimSince sim.Time
}

// Init (re)initializes the instrument set in place for a connection that
// begins at start.
func (s *Stats) Init(start sim.Time) {
	*s = Stats{}
	s.StartTime, s.curLimSince = start, start
}

// ObserveRTT folds one RTT sample into the min/max gauges (the smoothed
// value is maintained by the sender's estimator and set via SetSmoothedRTT).
// MinRTT reads 0 until the first sample: a real one never does, since every
// segment takes a serialization time.
func (s *Stats) ObserveRTT(rtt time.Duration) {
	s.CountRTT++
	if s.MinRTT == 0 || rtt < s.MinRTT {
		s.MinRTT = rtt
	}
	if rtt > s.MaxRTT {
		s.MaxRTT = rtt
	}
}

// SetCwnd updates the congestion-window gauges.
func (s *Stats) SetCwnd(bytes int64) {
	s.CurCwnd = bytes
	if bytes > s.MaxCwnd {
		s.MaxCwnd = bytes
	}
}

// SetSsthresh updates the slow-start-threshold gauges. MinSsthresh reads 0
// until the first call: a real ssthresh is never below 2 MSS.
func (s *Stats) SetSsthresh(bytes int64) {
	s.CurSsthresh = bytes
	if s.MinSsthresh == 0 || bytes < s.MinSsthresh {
		s.MinSsthresh = bytes
	}
}

// SetSndLim transitions the sender-limitation state machine, charging the
// elapsed interval to the outgoing state.
func (s *Stats) SetSndLim(state SndLimState, now sim.Time) {
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

func (s *Stats) chargeLim(now sim.Time) {
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
func (s *Stats) Finish(now sim.Time) {
	s.chargeLim(now)
	s.EndTime = now
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

// Snapshot returns a copy of the instrument set, with the in-progress
// limitation interval charged up to now so time accounting is current.
func (s *Stats) Snapshot(now sim.Time) Stats {
	c := *s
	if now.Sub(c.curLimSince) > 0 {
		c.chargeLim(now)
	}
	return c
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
	curLim           SndLimState
	curLimSince      sim.Time
}
