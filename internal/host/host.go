// Package host models the sending host's transmit path: a network interface
// (NIC) draining a finite interface queue (IFQ, the Linux txqueuelen). This
// is the "soft component" of the paper — when TCP's transmit path finds the
// IFQ full, the enqueue fails and a send-stall signal is raised, which
// 2.4-era Linux TCP treated exactly like network congestion.
package host

import (
	"time"

	"rsstcp/internal/netem"
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

// Interface is the simulated NIC + IFQ: a netem.Port buffering in the IFQ,
// plus the wakers of stalled senders. Sending is synchronous from the
// caller's point of view: Send returns false when the IFQ is full, which is
// precisely a send-stall, and the segment is NOT consumed (the caller keeps
// it). The NIC drains the IFQ at line rate into the attached network chain.
// Len, the IFQ occupancy in packets, is the PID controller's process
// variable.
type Interface struct {
	netem.Port
	queue  netem.DropTail
	wakers []func()
}

// NewInterface builds a NIC draining into dst.
func NewInterface(eng *sim.Engine, cfg InterfaceConfig, dst netem.Receiver) *Interface {
	i := new(Interface)
	i.Init(eng, cfg, dst)
	return i
}

// Init (re)initializes the NIC in place: idle, empty, counters zeroed,
// draining into dst. A used interface keeps only its IFQ's ring and its
// waker array, so a recycled NIC is indistinguishable from a fresh one and
// costs no allocation. Init does not release segments: an interface that may
// still hold any must be flushed first. Port.Init rejects a non-positive
// rate and a nil dst.
func (i *Interface) Init(eng *sim.Engine, cfg InterfaceConfig, dst netem.Receiver) {
	if cfg.TxQueueLen <= 0 {
		panic("host: TxQueueLen must be positive")
	}
	i.queue.Init(cfg.TxQueueLen)
	// The hook is the NIC itself under another method set: a pointer in an
	// interface, so the NIC binds no callback.
	i.Port.Init(eng, cfg.Rate, &i.queue, dst, (*ifqRoom)(i))
	i.wakers = i.wakers[:0]
}

// SetWaker arms a one-shot callback invoked the next time IFQ room becomes
// available. A stalled sender uses it to resume without polling. Several
// senders may share one interface (parallel streams from one host); each
// arms its own waker and all are woken when room appears.
func (i *Interface) SetWaker(fn func()) { i.wakers = append(i.wakers, fn) }

// ifqRoom is the port hook that wakes stalled senders. The port runs it
// after starting the next transmission: dequeueing that one is what frees
// IFQ room, so the wakers observe the post-dequeue occupancy.
type ifqRoom Interface

func (r *ifqRoom) Transmitted(*netem.Port) {
	i := (*Interface)(r)
	if len(i.wakers) == 0 || i.queue.Len() >= i.queue.Capacity() {
		return
	}
	// Wakers registered while these run (a sender that stalls again) are
	// appended behind them and kept for the next room; the hook cannot
	// re-enter, since it runs only from a completed transmission.
	n := len(i.wakers)
	for k := 0; k < n; k++ {
		i.wakers[k]()
	}
	i.wakers = i.wakers[:copy(i.wakers, i.wakers[n:])]
}

// Capacity returns the IFQ capacity in packets (txqueuelen).
func (i *Interface) Capacity() int { return i.queue.Capacity() }

// Stats returns the NIC counters: the port's transmission counters, with
// the IFQ's refusals as Stalls and its high-water mark as MaxQueue.
func (i *Interface) Stats() InterfaceStats {
	tx, q := i.Port.Stats(), i.queue.Stats()
	return InterfaceStats{Sent: tx.Sent, SentBytes: tx.SentBytes, Stalls: q.Dropped, MaxQueue: q.MaxLen, Busy: tx.Busy}
}
