package packet

// The segment pool removes the dominant per-segment allocation from the
// simulation hot path: senders and receivers Get fresh segments, hand
// ownership down the netem chain, and the terminal consumer (the peer TCP
// endpoint, or a drop point) Releases them.
//
// Ownership rules (also in DESIGN.md):
//
//   - Receive(seg) / Send(seg) transfers ownership to the callee — with one
//     exception: host.Interface.Send returning false (send-stall) leaves
//     ownership with the caller.
//   - A component may hold a segment only while it is responsible for it
//     (queued in a discipline, being serialized, in flight on a wire).
//   - The terminal consumer Releases after reading the fields it needs;
//     no pointer into the segment (e.g. its SACK slice) may be retained
//     across Release.
//   - Release on a hand-built (non-pool) segment is a no-op, so tests and
//     one-off injectors can keep building Segment literals.
//   - A segment is in at most one Queue at a time (see Queue): pushing a
//     queued segment, or releasing one, panics.
//   - A holder that is torn down with segments still in it releases them:
//     Scenario.Reset flushes every queue, serializer and delay line, so a
//     reused scenario's gets and releases balance right after each Reset.

// Release zeroes the segment (keeping SACK capacity) and returns it to the
// Pool it came from. Releasing a segment that did not come from a Pool — or
// releasing one twice — is a safe no-op, so double-release bugs cannot
// poison a pool with aliased entries. Releasing a pooled segment that is
// still in a Queue panics: the queue would hand it out again.
func (s *Segment) Release() {
	if s == nil || s.owner == nil {
		return
	}
	if s.linked {
		panic("packet: Release of a queued segment")
	}
	owner := s.owner
	sack := s.SACK[:0]
	*s = Segment{}
	s.SACK = sack
	owner.put(s)
}

// Pool is a private, single-threaded segment freelist: a simulation never
// shares segments across goroutines (a campaign worker runs one scenario at
// a time), so it allocates from its own Pool with no synchronization. The
// zero value is ready to use; a Pool must not be shared across concurrently
// running simulations.
type Pool struct {
	free     Queue // released segments, most recent first
	gets     int64
	releases int64
}

// NewPool returns an empty private pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a zeroed segment owned by this pool; its Release will come
// back here. The freelist stays warm across Scenario resets (and gets back
// whatever the previous run still held), so campaign replicates after the
// first run on recycled segments only.
func (p *Pool) Get() *Segment {
	seg := p.free.Pop()
	if seg == nil {
		seg = new(Segment)
	}
	seg.owner = p
	p.gets++
	return seg
}

// put takes back a zeroed segment (called by Segment.Release).
func (p *Pool) put(s *Segment) {
	p.releases++
	p.free.pushFront(s)
}

// Counters reports how many segments this pool has handed out and taken
// back — a leak-check hook: in a quiesced simulation the difference is the
// number of segments still held in queues or delay lines.
func (p *Pool) Counters() (gets, releases int64) { return p.gets, p.releases }
