// Package host models the sending host's transmit path: a network interface
// (NIC) draining a finite interface queue (IFQ, the Linux txqueuelen). This
// is the "soft component" of the paper — when TCP's transmit path finds the
// IFQ full, the enqueue fails and a send-stall signal is raised, which
// 2.4-era Linux TCP treated exactly like network congestion.
package host

import (
	"time"

	"rsstcp/internal/netem"
	"rsstcp/internal/packet"
	"rsstcp/internal/sim"
	"rsstcp/internal/unit"
)

// InterfaceConfig describes a NIC and its transmit queue.
type InterfaceConfig struct {
	// Rate is the NIC line rate.
	Rate unit.Bandwidth
	// TxQueueLen is the IFQ capacity in packets (Linux txqueuelen;
	// the 2.4-era default was 100).
	TxQueueLen int
}

// InterfaceStats aggregates the NIC counters.
type InterfaceStats struct {
	Sent      int64         // segments fully serialized onto the wire
	SentBytes int64         // wire bytes serialized
	Stalls    int64         // enqueue attempts refused (send-stalls)
	MaxQueue  int           // IFQ high-water mark in packets
	Busy      time.Duration // cumulative serialization time
}

// Interface is the simulated NIC + IFQ. Sending is synchronous from the
// caller's point of view: Send returns false when the IFQ is full, which is
// precisely a send-stall. The NIC drains the IFQ at line rate into the
// attached network chain.
type Interface struct {
	eng    *sim.Engine
	cfg    InterfaceConfig
	ser    unit.Serializer
	queue  netem.DropTail
	dst    netem.Receiver
	busy   bool
	wakers []func()
	spare  []func() // retired waker backing array, reused by wake()
	stats  InterfaceStats
	// Serializer state: busy guards a single in-flight transmission, so
	// the completion callback is bound once and reads these fields instead
	// of closing over per-segment state.
	txSeg  *packet.Segment
	txST   time.Duration
	txDone func()
}

// NewInterface builds a NIC draining into dst.
func NewInterface(eng *sim.Engine, cfg InterfaceConfig, dst netem.Receiver) *Interface {
	i := new(Interface)
	i.Init(eng, cfg, dst)
	return i
}

// Init (re)initializes the NIC in place: idle, empty, counters zeroed,
// draining into dst. A used interface keeps only its IFQ (held by value,
// re-initialized around its ring), its waker arrays and its bound callbacks,
// so a recycled NIC is indistinguishable from a fresh one and costs no
// allocation. Init does not release segments:
// an interface that may still hold any must be flushed first.
func (i *Interface) Init(eng *sim.Engine, cfg InterfaceConfig, dst netem.Receiver) {
	if cfg.Rate <= 0 {
		panic("host: NIC rate must be positive")
	}
	if cfg.TxQueueLen <= 0 {
		panic("host: TxQueueLen must be positive")
	}
	if dst == nil {
		panic("host: interface with nil destination")
	}
	queue, wakers, spare, txDone := i.queue, i.wakers[:0], i.spare[:0], i.txDone
	*i = Interface{} // zero, then set: a literal that reads i is built aside and copied
	i.eng, i.cfg, i.ser, i.dst = eng, cfg, unit.NewSerializer(cfg.Rate), dst
	i.queue, i.wakers, i.spare, i.txDone = queue, wakers, spare, txDone
	i.queue.Init(cfg.TxQueueLen)
	if i.txDone == nil {
		i.txDone = i.transmitDone
	}
}

// Flush releases every segment the NIC holds — queued in the IFQ or on the
// serializer — and leaves it idle. It is for teardown after the engine was
// reset: the pending transmit-completion entry must already be gone.
func (i *Interface) Flush() {
	netem.Flush(&i.queue)
	i.txSeg.Release()
	i.txSeg, i.busy = nil, false
}

// Send offers a segment to the IFQ. It returns false — a send-stall — when
// the queue is full; the segment is NOT consumed and the caller keeps it.
func (i *Interface) Send(seg *packet.Segment) bool {
	if !i.queue.Enqueue(seg) {
		i.stats.Stalls++
		return false
	}
	if n := i.queue.Len(); n > i.stats.MaxQueue {
		i.stats.MaxQueue = n
	}
	i.maybeTransmit()
	return true
}

// SetWaker arms a one-shot callback invoked the next time IFQ room becomes
// available. A stalled sender uses it to resume without polling. Several
// senders may share one interface (parallel streams from one host); each
// arms its own waker and all are woken when room appears.
func (i *Interface) SetWaker(fn func()) { i.wakers = append(i.wakers, fn) }

func (i *Interface) maybeTransmit() {
	if i.busy {
		return
	}
	seg := i.queue.Dequeue()
	if seg == nil {
		return
	}
	i.busy = true
	i.txSeg = seg
	i.txST = i.ser.Serialization(seg.Size())
	i.eng.ScheduleAfter(i.txST, i.txDone)
}

func (i *Interface) transmitDone() {
	seg, st := i.txSeg, i.txST
	i.txSeg = nil
	i.busy = false
	i.stats.Sent++
	i.stats.SentBytes += int64(seg.Size())
	i.stats.Busy += st
	i.dst.Receive(seg)
	// Start the next transmission first: dequeueing it is what frees
	// IFQ room, so the waker observes the post-dequeue occupancy.
	i.maybeTransmit()
	i.wake()
}

func (i *Interface) wake() {
	if len(i.wakers) == 0 || i.queue.Len() >= i.queue.Capacity() {
		return
	}
	// Swap in the retired backing array so re-registration during the
	// callbacks appends into reusable capacity instead of allocating.
	ws := i.wakers
	i.wakers = i.spare[:0]
	i.spare = ws
	for _, w := range ws {
		w()
	}
}

// Len returns the current IFQ occupancy in packets. This is the PID
// controller's process variable.
func (i *Interface) Len() int { return i.queue.Len() }

// Capacity returns the IFQ capacity in packets (txqueuelen).
func (i *Interface) Capacity() int { return i.queue.Capacity() }

// Idle reports whether the NIC has nothing in flight and an empty IFQ —
// the precondition for recycling it to a new flow.
func (i *Interface) Idle() bool { return !i.busy && i.queue.Len() == 0 }

// Stats returns a copy of the NIC counters.
func (i *Interface) Stats() InterfaceStats { return i.stats }

// Rate returns the NIC line rate.
func (i *Interface) Rate() unit.Bandwidth { return i.cfg.Rate }
