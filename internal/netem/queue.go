package netem

import (
	"rsstcp/internal/packet"
)

// fifo is a head-indexed queue: the live items are items[head:]. Its backing
// array is sized by what it has held at once, not by what has passed
// through: a pop that empties it rewinds to the front, and a full array
// slides before it grows (see push). DelayLine keeps its entries in one,
// since each carries a due time and a reserved sequence number besides the
// segment; DropTail needs only the segments and links them (packet.Queue).
type fifo[T any] struct {
	items []T
	head  int
}

func (f *fifo[T]) len() int { return len(f.items) - f.head }

// front returns the oldest item in place; the fifo must not be empty.
func (f *fifo[T]) front() *T { return &f.items[f.head] }

// push appends v. A full array slides its live part to the front when the
// dead prefix is at least half of it — head*2 >= len keeps the copy
// amortized O(1), each slide moving at most as many items as were popped
// since the last — and otherwise grows.
func (f *fifo[T]) push(v T) {
	if len(f.items) == cap(f.items) {
		if f.head > 0 && f.head*2 >= len(f.items) {
			f.compact()
		} else {
			f.grow()
		}
	}
	f.items = append(f.items, v)
}

// pop removes and returns the oldest item; the fifo must not be empty.
func (f *fifo[T]) pop() T {
	var zero T
	v := f.items[f.head]
	f.items[f.head] = zero
	f.head++
	if f.head == len(f.items) {
		f.items, f.head = f.items[:0], 0 // empty: rewind, nothing to copy
	} else if f.head > 64 && f.head*2 >= len(f.items) {
		// Compact once the dead prefix dominates, keeping amortized O(1).
		f.compact()
	}
	return v
}

// grow moves the live part to the front of a new array twice its length,
// and at least half again the old one, so an occupancy that creeps up past
// half the array reallocates geometrically, not at every fill. Growing
// means more than half the array is live, so the new one is under three
// times the occupancy. append would instead double the whole array, dead
// prefix included, and round up to a size class: a fifo under half dead
// could end up more than four times its occupancy.
func (f *fifo[T]) grow() {
	live := f.items[f.head:]
	items := make([]T, len(live), max(2*len(live), cap(f.items)*3/2, 1))
	copy(items, live)
	f.items, f.head = items, 0
}

// compact moves the live part to the front of the backing array.
func (f *fifo[T]) compact() {
	n := copy(f.items, f.items[f.head:])
	clear(f.items[n:])
	f.items = f.items[:n]
	f.head = 0
}

// flush hands every item to release, oldest first, and empties the fifo,
// keeping its backing array.
func (f *fifo[T]) flush(release func(T)) {
	for _, v := range f.items[f.head:] {
		release(v)
	}
	clear(f.items)
	f.items, f.head = f.items[:0], 0
}

// QueueStats aggregates a DropTail's counters.
type QueueStats struct {
	Enqueued int64 // segments accepted
	Dequeued int64 // segments handed downstream
	Dropped  int64 // segments refused
	MaxLen   int   // high-water mark in packets
}

// DropTail is a FIFO queue with a fixed packet-count capacity, the classic
// router discipline and the model for the Linux pfifo qdisc. Its segments
// are linked through themselves (packet.Queue), so it owns no storage.
type DropTail struct {
	cap   int
	q     packet.Queue
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
// with zeroed counters. A used queue must be emptied first (Flush): Init
// does not release what it still holds.
func (q *DropTail) Init(capPackets int) {
	*q = DropTail{cap: capPackets}
}

// Flush empties a queue whose owner is being torn down, releasing every
// segment it still holds back to its pool, oldest first.
func (q *DropTail) Flush() {
	q.stats.Dequeued += int64(q.q.Len())
	for seg := q.q.Pop(); seg != nil; seg = q.q.Pop() {
		seg.Release()
	}
}

// Enqueue appends the segment, or drops it when the queue is full.
func (q *DropTail) Enqueue(seg *packet.Segment) bool {
	if q.cap > 0 && q.q.Len() >= q.cap {
		q.stats.Dropped++
		return false
	}
	q.q.Push(seg)
	q.stats.Enqueued++
	q.stats.MaxLen = max(q.stats.MaxLen, q.q.Len())
	return true
}

// Dequeue removes the oldest segment, or returns nil when empty.
func (q *DropTail) Dequeue() *packet.Segment {
	seg := q.q.Pop()
	if seg != nil {
		q.stats.Dequeued++
	}
	return seg
}

// Len returns the number of queued packets.
func (q *DropTail) Len() int { return q.q.Len() }

// Capacity returns the packet capacity (0 = unlimited).
func (q *DropTail) Capacity() int { return q.cap }

// Stats returns a copy of the queue counters.
func (q *DropTail) Stats() QueueStats { return q.stats }
