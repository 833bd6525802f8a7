// Package tcp implements the data-transfer machinery of a TCP connection on
// the simulator: a sender with RFC 5681/6582 loss recovery, RFC 6298 RTO
// management and pluggable congestion control (internal/cc), and a receiver
// with delayed ACKs, out-of-order reassembly and SACK generation.
//
// Connections start established (no SYN exchange): the paper's experiments
// are multi-second bulk transfers on which connection setup has no bearing.
// Sequence numbers are absolute byte offsets from zero.
package tcp

import (
	"time"

	"rsstcp/internal/packet"
	"rsstcp/internal/sim"
	"rsstcp/internal/telemetry"
)

// TransmitPath is the sender's exit to the host NIC: Send returns false on
// a send-stall (full IFQ), and SetWaker arms a one-shot resume callback.
// host.Interface implements it.
type TransmitPath interface {
	Send(seg *packet.Segment) bool
	SetWaker(func())
}

// StallPolicy selects how the sender reacts to a send-stall.
type StallPolicy int

// Stall policies.
const (
	// StallCongestion treats the stall as a congestion event and
	// collapses the window — faithful to Linux 2.4, the behaviour the
	// paper identifies as the throughput killer.
	StallCongestion StallPolicy = iota
	// StallWait merely waits for IFQ room without touching the window —
	// an idealized sender used for ablation.
	StallWait
)

// String names the policy.
func (p StallPolicy) String() string {
	switch p {
	case StallCongestion:
		return "congestion"
	case StallWait:
		return "wait"
	default:
		return "unknown"
	}
}

const (
	// dupThresh is the duplicate-ACK count that triggers fast retransmit.
	dupThresh = 3
	// maxBurst caps the segments one send opportunity (one ACK arrival,
	// one waker) releases, the ns-2/BSD classic: large cumulative ACKs —
	// recovery exit, hole repair — would otherwise dump hundreds of
	// segments into the IFQ at once.
	maxBurst = 8
)

// Config carries the connection parameters shared by sender and receiver,
// and the wiring every connection of a simulation shares: engine, segment
// pool, node store, timer wheel, flight recorder, stall and completion
// hooks. Endpoints built with Init hold a pointer to it rather than a copy,
// so one Config serves every connection configured alike: a scenario keeps
// one per distinct configuration for all of its flows. It must stay
// unchanged while an endpoint built on it runs.
type Config struct {
	// MSS is the maximum segment payload in bytes. 1448 matches an
	// Ethernet MTU minus IP/TCP headers with timestamps.
	MSS int
	// RcvWnd is the receiver's advertised window in bytes. The paper-era
	// labs tuned sockets well above the 750 KB path BDP.
	RcvWnd int64
	// AckEvery is the delayed-ACK segment threshold (2 per RFC 1122).
	AckEvery int
	// DelAckTimeout bounds how long an ACK may be delayed (Linux: 40 ms).
	DelAckTimeout time.Duration
	// SACK enables selective-acknowledgment generation and use.
	SACK bool
	// MinRTO, MaxRTO, InitialRTO parameterize RFC 6298 (Linux values).
	MinRTO     time.Duration
	MaxRTO     time.Duration
	InitialRTO time.Duration
	// RTOGranularity is the timer granularity G of RFC 6298.
	RTOGranularity time.Duration
	// Stall selects the send-stall reaction.
	Stall StallPolicy
	// Pool is the segment allocator the endpoints draw from. A scenario
	// shares one across its flows so the freelist stays warm over resets;
	// nil gives the endpoint a private pool at construction.
	Pool *packet.Pool
	// Store lends the nodes of the receivers' out-of-order range lists. A
	// scenario shares one across its flows, as it does Pool; nil gives the
	// endpoint a private store at construction.
	Store *Store
	// Wheel, when non-nil, hosts the endpoint timers (the sender's RTO,
	// the receiver's delayed ACK) on a timer wheel over the calendar
	// instead of on the calendar itself (sim.Wheel). Firing order is
	// identical either way; the wheel keeps calendar depth flat when
	// thousands of flows re-arm timers on every ACK.
	Wheel *sim.Wheel
	// Eng is the engine the endpoints run on (NewSender and NewReceiver set
	// it on their copy).
	Eng *sim.Engine
	// FR, when non-nil, records the senders' congestion events.
	FR *telemetry.FlightRecorder
	// OnStall, when non-nil, fires on every send-stall of a sender, after
	// its Stats().SendStall counts it: a traced scenario's Figure-1 series
	// hooks here.
	OnStall func(*Sender)
	// OnComplete, when non-nil, fires once per sender when all supplied
	// data is acknowledged after Close.
	OnComplete func(*Sender)
}

// DefaultConfig returns parameters matching the paper's Linux 2.4 testbed.
func DefaultConfig() Config {
	return Config{
		MSS:            1448,
		RcvWnd:         4 << 20,
		AckEvery:       2,
		DelAckTimeout:  40 * time.Millisecond,
		SACK:           false,
		MinRTO:         200 * time.Millisecond,
		MaxRTO:         120 * time.Second,
		InitialRTO:     time.Second,
		RTOGranularity: time.Millisecond,
		Stall:          StallCongestion,
	}
}

// fillDefaults fills zero fields from DefaultConfig, in place. It is
// idempotent: a filled config comes back unchanged.
func (c *Config) fillDefaults() {
	d := DefaultConfig()
	if c.MSS <= 0 {
		c.MSS = d.MSS
	}
	if c.RcvWnd <= 0 {
		c.RcvWnd = d.RcvWnd
	}
	if c.AckEvery <= 0 {
		c.AckEvery = d.AckEvery
	}
	if c.DelAckTimeout <= 0 {
		c.DelAckTimeout = d.DelAckTimeout
	}
	if c.MinRTO <= 0 {
		c.MinRTO = d.MinRTO
	}
	if c.MaxRTO <= 0 {
		c.MaxRTO = d.MaxRTO
	}
	if c.InitialRTO <= 0 {
		c.InitialRTO = d.InitialRTO
	}
	if c.RTOGranularity <= 0 {
		c.RTOGranularity = d.RTOGranularity
	}
	if c.Pool == nil {
		c.Pool = packet.NewPool()
	}
	if c.Store == nil {
		c.Store = NewStore()
	}
}
