// Package cc defines the congestion-control plug-in interface used by the
// TCP sender and the classical implementations: Reno AIMD machinery with a
// pluggable slow-start policy. The paper's Restricted Slow-Start is exactly
// a slow-start policy (internal/core), so it composes with the same loss
// recovery and congestion-avoidance code as the baselines it is compared to.
package cc

import (
	"time"

	"rsstcp/internal/sim"
)

// Window is the view of sender state a congestion controller reads and
// mutates. All window quantities are bytes. The TCP sender implements it.
type Window interface {
	// MSS returns the maximum segment payload size in bytes.
	MSS() int
	// Cwnd returns the congestion window.
	Cwnd() int64
	// SetCwnd sets the congestion window (clamped to >= 1 MSS by callers).
	SetCwnd(bytes int64)
	// Ssthresh returns the slow-start threshold.
	Ssthresh() int64
	// SetSsthresh sets the slow-start threshold.
	SetSsthresh(bytes int64)
	// FlightSize returns the bytes currently outstanding (unacked).
	FlightSize() int64
	// SRTT returns the smoothed RTT estimate, 0 before the first sample.
	SRTT() time.Duration
	// LastRTT returns the most recent raw RTT sample, 0 before the first;
	// delay-based heuristics (HyStart) need the unsmoothed signal.
	LastRTT() time.Duration
	// Now returns the current virtual time.
	Now() sim.Time
}

// Controller adjusts the congestion window in response to sender events.
// The sender owns sequence-number bookkeeping (what to retransmit, when
// recovery ends); the controller owns the window arithmetic.
type Controller interface {
	// Name identifies the algorithm in tables and traces.
	Name() string
	// Attach binds the controller to a sender's window at connection
	// start; implementations initialize cwnd and ssthresh here.
	Attach(w Window)
	// OnAck is invoked for each cumulative ACK advancing the window by
	// acked bytes while NOT in recovery.
	OnAck(acked int64)
	// OnDupAck is invoked per duplicate ACK received during recovery
	// (classic window inflation).
	OnDupAck()
	// OnEnterRecovery is invoked when loss is detected by duplicate ACKs
	// (fast retransmit): the multiplicative decrease.
	OnEnterRecovery()
	// OnPartialAck is invoked for a NewReno partial ACK during recovery.
	OnPartialAck(acked int64)
	// OnExitRecovery is invoked when recovery completes (full ACK).
	OnExitRecovery()
	// OnRTO is invoked on retransmission timeout.
	OnRTO()
	// OnLocalStall is invoked when a send-stall is treated as a
	// congestion event (the Linux 2.4 behaviour the paper fixes).
	OnLocalStall()
	// InSlowStart reports whether window growth follows the slow-start
	// policy (cwnd below ssthresh, not recovering).
	InSlowStart() bool
}

// SlowStartPolicy governs window growth while the connection is in
// slow-start. This is the axis the paper varies.
type SlowStartPolicy interface {
	// Name identifies the policy ("standard", "limited", "restricted").
	Name() string
	// Reset is called whenever slow-start is (re)entered: at connection
	// start and after an RTO.
	Reset(w Window)
	// Advance returns the permitted cwnd increase in bytes in response
	// to an ACK covering acked new bytes while in slow-start.
	Advance(w Window, acked int64) int64
}
