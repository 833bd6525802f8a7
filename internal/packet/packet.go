// Package packet defines the wire units exchanged by simulated hosts: TCP
// segments with the header fields the congestion-control machinery needs
// (sequence/ack numbers, flags, SACK blocks) plus bookkeeping used by the
// instrumentation (timestamps, retransmission marks).
package packet

import (
	"fmt"

	"rsstcp/internal/sim"
	"rsstcp/internal/unit"
)

// Flags is the TCP flag bit set (the subset the simulator uses).
type Flags uint8

// Flag bits.
const (
	FlagSYN Flags = 1 << iota
	FlagACK
	FlagFIN
	FlagRST
	FlagECE // ECN echo (available for extension experiments)
	FlagCWR
)

// Has reports whether all bits in f are set.
func (f Flags) Has(bits Flags) bool { return f&bits == bits }

// String renders the flags in tcpdump-like notation.
func (f Flags) String() string {
	s := ""
	add := func(bit Flags, ch string) {
		if f.Has(bit) {
			s += ch
		}
	}
	add(FlagSYN, "S")
	add(FlagFIN, "F")
	add(FlagRST, "R")
	add(FlagACK, ".")
	add(FlagECE, "E")
	add(FlagCWR, "W")
	if s == "" {
		return "-"
	}
	return s
}

// SACKBlock is one selective-acknowledgment range [Start, End).
type SACKBlock struct {
	Start, End int64
}

// Len returns the number of bytes covered by the block.
func (b SACKBlock) Len() int64 { return b.End - b.Start }

// Contains reports whether seq lies inside the block.
func (b SACKBlock) Contains(seq int64) bool { return seq >= b.Start && seq < b.End }

// HeaderBytes is the fixed header overhead we charge per segment on the
// wire (IP + TCP without options), matching the usual 40-byte figure.
const HeaderBytes = 40

// Segment is a simulated TCP segment. Sequence numbers are absolute
// byte offsets within the flow (no wraparound: a simulated transfer never
// approaches 2^63 bytes), which keeps the arithmetic honest and testable.
//
// Hot paths obtain segments from a Pool with Get and pass ownership along
// the delivery chain; the terminal consumer calls Release. See the
// "Performance" section of DESIGN.md for the ownership rules.
type Segment struct {
	// Flow identifies the connection the segment belongs to.
	Flow FlowID
	// Gen is the flow's incarnation under FlowID reuse: endpoints stamp
	// their configured generation on every segment, and demultiplexers
	// deliver only when it matches the route's — a stray segment of a
	// detached flow can never reach the ID's next owner.
	Gen uint32
	// Seq is the first data byte carried; Seq+Len is one past the last.
	Seq int64
	// Len is the number of payload bytes.
	Len int
	// Ack is the cumulative acknowledgment (next byte expected), valid
	// when FlagACK is set.
	Ack int64
	// Flags carries the TCP flag bits.
	Flags Flags
	// Retransmit marks the segment as a retransmission (excluded from
	// RTT sampling per Karn's algorithm).
	Retransmit bool
	// linked is set while the segment is threaded onto a Queue or a pool's
	// freelist through next (see Queue); it sits in the word Flags starts.
	linked bool
	// Wnd is the advertised receive window in bytes.
	Wnd int64
	// SACK holds up to 4 selective-acknowledgment blocks (RFC 2018).
	SACK []SACKBlock
	// SentAt is stamped by the sender host when the segment enters the
	// wire; echoes into RTT sampling.
	SentAt sim.Time

	// owner is the Pool the segment is checked out of. Release returns it
	// there, so components never need to know which allocator fed them.
	// Segments built by hand (tests, injectors) and segments resting in a
	// freelist leave it nil, so Release on them is a no-op.
	owner *Pool
	// next links the segment to the one behind it in its Queue or freelist.
	next *Segment
}

// FlowID names a connection; direction is carried by the segment type.
type FlowID int32

// Size returns the on-the-wire size of the segment in bytes.
func (s *Segment) Size() unit.ByteSize {
	return unit.ByteSize(s.Len + HeaderBytes)
}

// End returns one past the last sequence byte carried (Seq+Len).
func (s *Segment) End() int64 { return s.Seq + int64(s.Len) }

// IsData reports whether the segment carries payload bytes.
func (s *Segment) IsData() bool { return s.Len > 0 }

// IsPureAck reports whether the segment is an ACK without payload.
func (s *Segment) IsPureAck() bool {
	return s.Len == 0 && s.Flags.Has(FlagACK) && !s.Flags.Has(FlagSYN) && !s.Flags.Has(FlagFIN)
}

// String renders a compact tcpdump-like description.
func (s *Segment) String() string {
	return fmt.Sprintf("flow=%d %s seq=%d len=%d ack=%d wnd=%d",
		s.Flow, s.Flags, s.Seq, s.Len, s.Ack, s.Wnd)
}

// Clone returns a deep copy (SACK slice included); injectors that duplicate
// packets use it so the copies do not alias. The copy is checked out of the
// original's Pool and follows the usual ownership protocol; a hand-built
// segment clones to a hand-built one. The copy is in no Queue, whatever the
// original is in.
func (s *Segment) Clone() *Segment {
	var c *Segment
	if s.owner != nil {
		c = s.owner.Get()
	} else {
		c = new(Segment)
	}
	sack := c.SACK
	*c = *s
	c.SACK = append(sack[:0], s.SACK...)
	c.next, c.linked = nil, false
	return c
}
