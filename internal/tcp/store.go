package tcp

import "rsstcp/internal/packet"

// oooRange is one out-of-order range [start, end) a receiver holds beyond
// rcv.nxt: a node of its range list, sorted and disjoint.
type oooRange struct {
	next       *oooRange
	start, end int64
}

func (r *oooRange) block() packet.SACKBlock { return packet.SACKBlock{Start: r.start, End: r.end} }

// Store lends the nodes of every receiver's range list of one simulation, so
// that no receiver owns a growable array: a list holds exactly its nodes, and
// the nodes an emptied or torn-down list gives back serve the next one. Nodes
// are allocated in chunks that double from storeChunkMin up to storeChunkMax
// nodes and are never freed. A chunk is allocated only when every node is
// out, so a store never has more than twice its peak out plus storeChunkMin
// allocated. Like a packet.Pool a store is single-threaded: one per
// simulation.
type Store struct {
	ranges *oooRange // free ranges, linked through next
	stats  NodeStats
}

// NodeStats counts a store's nodes.
type NodeStats struct {
	Allocated int // nodes allocated, free or out
	Out       int // nodes lent to a list and not yet given back
	Peak      int // the most nodes out at once
}

// Chunk sizes, in nodes: the first chunk, and the cap the doubling stops at.
const (
	storeChunkMin = 8
	storeChunkMax = 256
)

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// Stats returns the counts of the store's nodes. When every receiver of a
// simulation is stopped or re-initialized, Out is zero: every node lent has
// come back.
func (st *Store) Stats() NodeStats { return st.stats }

// newRange lends a range [start, end) linked in front of next.
func (st *Store) newRange(start, end int64, next *oooRange) *oooRange {
	r := st.ranges
	if r == nil {
		n := min(st.stats.Allocated+storeChunkMin, storeChunkMax)
		st.stats.Allocated += n
		c := make([]oooRange, n)
		for i := range c[:len(c)-1] {
			c[i].next = &c[i+1]
		}
		r = &c[0]
	}
	st.ranges = r.next
	*r = oooRange{next: next, start: start, end: end}
	st.stats.Out++
	st.stats.Peak = max(st.stats.Peak, st.stats.Out)
	return r
}

// putRange takes back one range.
func (st *Store) putRange(r *oooRange) {
	r.next = st.ranges
	st.ranges = r
	st.stats.Out--
}
