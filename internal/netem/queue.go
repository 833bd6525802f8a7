package netem

import (
	"rsstcp/internal/packet"
	"rsstcp/internal/unit"
)

// Queue is a packet queueing discipline. Enqueue returns false when the
// discipline drops the segment (tail drop, an AQM discard, ...). Implementations
// keep their own drop statistics.
type Queue interface {
	// Enqueue offers a segment; false means the segment was dropped.
	Enqueue(seg *packet.Segment) bool
	// Dequeue removes and returns the next segment, or nil when empty.
	Dequeue() *packet.Segment
	// Len returns the number of queued packets.
	Len() int
	// Bytes returns the number of queued payload+header bytes.
	Bytes() unit.ByteSize
	// Capacity returns the maximum number of packets the queue holds;
	// 0 means unlimited.
	Capacity() int
}

// QueueStats aggregates the counters every discipline maintains.
type QueueStats struct {
	Enqueued int64 // segments accepted
	Dequeued int64 // segments handed downstream
	Dropped  int64 // segments refused
	MaxLen   int   // high-water mark in packets
}

// DropTail is a FIFO queue with a fixed packet-count capacity, the classic
// router discipline and the model for the Linux pfifo qdisc.
// The queue is segs[head:], and its backing array is sized by what it has held
// at once, not by what has passed through: a dequeue that empties it rewinds
// to the front, and a full array slides before it grows (see Enqueue).
type DropTail struct {
	cap   int
	segs  []*packet.Segment
	head  int
	bytes unit.ByteSize
	stats QueueStats
}

// NewDropTail returns a FIFO holding at most capPackets packets.
// capPackets <= 0 means unlimited.
func NewDropTail(capPackets int) *DropTail {
	q := new(DropTail)
	q.Init(capPackets)
	return q
}

// Init (re)initializes the queue in place as an empty FIFO of capPackets
// with zeroed counters, keeping only the ring's backing array. A used queue
// must be emptied first (Flush): Init does not release what it still holds.
func (q *DropTail) Init(capPackets int) {
	segs := q.segs[:0]
	*q = DropTail{}
	q.cap, q.segs = capPackets, segs
}

// Flush empties a discipline whose owner is being torn down, releasing every
// segment it still holds back to its pool.
func Flush(q Queue) {
	for seg := q.Dequeue(); seg != nil; seg = q.Dequeue() {
		seg.Release()
	}
}

// Enqueue appends the segment, or drops it when the queue is full.
func (q *DropTail) Enqueue(seg *packet.Segment) bool {
	if q.cap > 0 && q.Len() >= q.cap {
		q.stats.Dropped++
		return false
	}
	// Slide before growing. The head*2 >= len guard keeps the copy amortized
	// O(1): each slide moves at most as many segments as were dequeued since
	// the last one. A mostly live ring fails it and grows.
	if len(q.segs) == cap(q.segs) {
		if q.head > 0 && q.head*2 >= len(q.segs) {
			q.compact()
		} else {
			q.grow()
		}
	}
	q.segs = append(q.segs, seg)
	q.bytes += seg.Size()
	q.stats.Enqueued++
	if n := q.Len(); n > q.stats.MaxLen {
		q.stats.MaxLen = n
	}
	return true
}

// Dequeue removes the oldest segment, or returns nil when empty.
func (q *DropTail) Dequeue() *packet.Segment {
	if q.head >= len(q.segs) {
		return nil
	}
	seg := q.segs[q.head]
	q.segs[q.head] = nil
	q.head++
	q.bytes -= seg.Size()
	q.stats.Dequeued++
	if q.head == len(q.segs) {
		q.segs, q.head = q.segs[:0], 0 // empty: rewind, nothing to copy
	} else if q.head > 64 && q.head*2 >= len(q.segs) {
		// Compact once the dead prefix dominates, keeping amortized O(1).
		q.compact()
	}
	return seg
}

// grow moves the live part to the front of a new array twice its length.
// append would instead double the whole array, dead prefix included, and
// round up to a size class: a ring under half dead could end up more than
// four times its occupancy.
func (q *DropTail) grow() {
	live := q.segs[q.head:]
	segs := make([]*packet.Segment, len(live), max(2*len(live), 1))
	copy(segs, live)
	q.segs, q.head = segs, 0
}

// compact moves the live part to the front of the backing array.
func (q *DropTail) compact() {
	n := copy(q.segs, q.segs[q.head:])
	clear(q.segs[n:])
	q.segs = q.segs[:n]
	q.head = 0
}

// Len returns the number of queued packets.
func (q *DropTail) Len() int { return len(q.segs) - q.head }

// Bytes returns the bytes held in the queue.
func (q *DropTail) Bytes() unit.ByteSize { return q.bytes }

// Capacity returns the packet capacity (0 = unlimited).
func (q *DropTail) Capacity() int { return q.cap }

// Stats returns a copy of the queue counters.
func (q *DropTail) Stats() QueueStats { return q.stats }
