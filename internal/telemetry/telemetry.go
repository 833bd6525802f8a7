// Package telemetry is the simulator's observability layer: an always-on,
// allocation-free flight recorder of structured congestion events, the
// atomic Counter campaign self-metrics are built from, and the CPU/heap
// profile files behind the CLIs' -cpuprofile and -memprofile flags.
//
// The flight recorder answers the question the source paper answered with
// Web100 instrumentation — *why* did a sender stall or a transfer collapse —
// without requiring the run to be re-executed with tracing on: every
// scenario keeps a fixed-size ring of the most recent congestion events
// (loss detection, RTO fires, cwnd changes, slow-start exits, per-hop
// drops, injected faults), so a campaign can dump the timeline of an
// anomalous replicate the moment it finishes.
//
// Determinism rules: a recorder is owned by exactly one simulation (one
// logical thread of virtual time), records only virtual-time facts, and its
// JSONL dump is byte-identical for a fixed seed regardless of wall-clock
// scheduling or campaign worker count. Counters, by contrast, back
// wall-clock self-observation (campaign.SelfMetrics) and are safe for
// concurrent use; what they count is explicitly outside the byte-
// determinism guarantees of the result exports. Nothing here opens a
// socket.
package telemetry

import (
	"rsstcp/internal/sim"
)

// Kind identifies a flight-recorder event type. Kinds are interned small
// integers so recording is a value write, never a string allocation.
type Kind uint8

// Flight-recorder event kinds. The A/B payload meaning is per kind.
const (
	// KindNone is the zero Kind; it never appears in a recorded event.
	KindNone Kind = iota
	// KindCwnd: the congestion window changed. A = old, B = new (bytes).
	KindCwnd
	// KindSlowStartExit: the sender left slow-start. A = cwnd, B = ssthresh.
	KindSlowStartExit
	// KindLossDetect: fast retransmit triggered (dupACK threshold).
	// A = snd.una, B = recovery point (snd.nxt).
	KindLossDetect
	// KindRTO: the retransmission timer fired. A = snd.una, B = bytes of
	// flight rewound by go-back-N.
	KindRTO
	// KindStall: a send-stall (full IFQ refused a segment). A = snd.nxt,
	// B = cwnd at the stall.
	KindStall
	// KindMD: the congestion controller applied a multiplicative decrease.
	// A = old ssthresh, B = new ssthresh (bytes).
	KindMD
	// KindHopDrop: a hop's queue (drop-tail or RED) refused a segment.
	// A = sequence number, B = instantaneous queue length.
	KindHopDrop
	// KindLossInject: the loss injector discarded a segment. A = sequence.
	KindLossInject
	// KindReorder: the reorder injector held a segment back. A = sequence,
	// B = extra delay in nanoseconds.
	KindReorder
	// KindDup: the duplicator emitted an extra copy. A = sequence.
	KindDup
	// KindFlowStart: a dynamic flow attached to the scenario. A = transfer
	// size in bytes (0 = unbounded), B = live flow count after the attach.
	KindFlowStart
	// KindFlowComplete: a dynamic flow ran to byte-completion and detached.
	// A = bytes transferred, B = completion time in nanoseconds.
	KindFlowComplete

	kindCount // sentinel: number of kinds
)

// kindNames interns the JSONL spelling of every kind; recording and dumping
// never format strings per event.
var kindNames = [kindCount]string{
	KindNone:          "none",
	KindCwnd:          "cwnd",
	KindSlowStartExit: "ss-exit",
	KindLossDetect:    "loss-detect",
	KindRTO:           "rto",
	KindStall:         "stall",
	KindMD:            "md",
	KindHopDrop:       "hop-drop",
	KindLossInject:    "loss-inject",
	KindReorder:       "reorder",
	KindDup:           "dup",
	KindFlowStart:     "flow-start",
	KindFlowComplete:  "flow-complete",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one flight-recorder record: a fixed-size value, so the ring is a
// flat slice and recording is a struct assignment.
type Event struct {
	// T is the virtual time of the event.
	T sim.Time
	// Kind identifies what happened.
	Kind Kind
	// Flow is the connection the event belongs to (0 = none/path-global).
	Flow int32
	// Hop is the forward-hop index for network events (-1 = not a hop:
	// sender-side events, and the reverse channel).
	Hop int32
	// A and B carry the kind-specific payload (see the Kind constants).
	A, B int64
}
