// Package netem provides the network elements the simulated hosts are wired
// through: rate/delay links, queueing disciplines (drop-tail, RED), fault
// injectors (loss, duplication, reordering) and small receiver adaptors.
//
// Elements are composed as chains of Receivers: each element accepts a
// segment and eventually hands it (or not, if dropped) to its downstream.
package netem

import (
	"rsstcp/internal/packet"
)

// Receiver consumes segments. Hosts, links, queues and injectors all
// implement it, so elements compose freely.
type Receiver interface {
	Receive(seg *packet.Segment)
}

// Func adapts a function to the Receiver interface.
type Func func(*packet.Segment)

// Receive invokes the function.
func (f Func) Receive(seg *packet.Segment) { f(seg) }

// Sink discards and counts everything it receives; useful as a chain
// terminator in tests.
type Sink struct {
	Packets int
	Bytes   int64
	Last    *packet.Segment
}

// Receive records and discards the segment.
func (s *Sink) Receive(seg *packet.Segment) {
	s.Packets++
	s.Bytes += int64(seg.Size())
	s.Last = seg
}
