package packet

// Queue is a FIFO of segments threaded through the segments themselves: a
// segment carries the link to the one behind it, so a queue owns no storage
// and holding n segments costs nothing beyond the segments. Every drop-tail
// queue (a NIC's IFQ, a hop's buffer, the reverse link) and a Pool's freelist
// are one.
//
// A segment is linked into at most one Queue or freelist at a time: Push of
// a segment that is already linked panics, and so does Release of a pooled
// segment that is still queued, since either would cut the chain it is on.
// The zero value is an empty queue.
type Queue struct {
	head, tail *Segment
	n          int
}

// Len returns the number of queued segments.
func (q *Queue) Len() int { return q.n }

// Push appends s at the tail. It panics if s is already in a queue.
func (q *Queue) Push(s *Segment) {
	if s.linked {
		panic("packet: Push of a segment that is already queued")
	}
	s.linked = true
	if q.tail == nil {
		q.head = s
	} else {
		q.tail.next = s
	}
	q.tail = s
	q.n++
}

// pushFront links s in at the head, so Pop returns it next: a freelist used
// this way hands out the most recently released (cache-warm) segment first.
func (q *Queue) pushFront(s *Segment) {
	if s.linked {
		panic("packet: Push of a segment that is already queued")
	}
	s.linked = true
	s.next = q.head
	q.head = s
	if q.tail == nil {
		q.tail = s
	}
	q.n++
}

// Pop removes and returns the oldest segment, or nil when empty.
func (q *Queue) Pop() *Segment {
	s := q.head
	if s == nil {
		return nil
	}
	q.head = s.next
	if q.head == nil {
		q.tail = nil
	}
	s.next, s.linked = nil, false
	q.n--
	return s
}
