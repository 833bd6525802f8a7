package tcp

// flowRow is one sender's hot window and sequence state: everything an ACK
// reads and writes besides the record list itself.
type flowRow struct {
	// window state (bytes)
	cwnd     int64
	ssthresh int64
	rwnd     int64 // peer's advertised window, from ACKs

	// sequence state
	sndUna   int64
	sndNxt   int64
	maxSent  int64 // transmission high-water mark (survives RTO rewind)
	supplied int64 // bytes the application has made available

	// SACK scoreboard aggregates
	sackedBytes int64 // bytes of outstanding records marked SACKed
	fack        int64 // forward ACK: highest SACKed sequence end
	rtxOut      int64 // retransmitted bytes not yet (S)ACKed

	// segHead is the live-window head index into the sender's record list
	// (see Sender.live).
	segHead int32
}

// FlowTable holds every sender's hot state as one row per flow, indexed by
// a compact flow slot, so a 10k-flow scenario keeps that state in one
// contiguous slice instead of 10k pointer-rich Sender structs, and an ACK
// touches one row (DESIGN.md).
//
// A Sender owns one row from NewSender until ReleaseRow; released rows go
// on a free list and are recycled (zeroed) by the next Alloc, so a churn
// run's table is bounded by its peak live flow count, not its total flow
// count. Alloc may move the rows, so no *flowRow is held across calls. The
// table is not safe for concurrent use: like the engine, a simulation is a
// single logical thread, and campaign workers each own a private table.
type FlowTable struct {
	rows []flowRow
	free []int32 // released slots awaiting reuse

	reuses uint64 // allocations served from the free list, over the table's life
}

// NewFlowTable returns an empty table with capacity for about capHint
// concurrent flows pre-reserved (0 is fine: the rows grow on demand).
func NewFlowTable(capHint int) *FlowTable {
	return &FlowTable{rows: make([]flowRow, 0, max(capHint, 0))}
}

// Alloc returns a zeroed row slot, reusing a released one when available.
func (t *FlowTable) Alloc() int32 {
	if n := len(t.free); n > 0 {
		slot := t.free[n-1]
		t.free = t.free[:n-1]
		t.rows[slot] = flowRow{}
		t.reuses++
		return slot
	}
	t.rows = append(t.rows, flowRow{})
	return int32(len(t.rows) - 1)
}

// Free returns a row to the free list. The caller must not touch the slot
// again; the next Alloc may hand it to another flow.
func (t *FlowTable) Free(slot int32) {
	if slot < 0 || int(slot) >= len(t.rows) {
		panic("tcp: FlowTable.Free of an invalid slot")
	}
	t.free = append(t.free, slot)
}

// Rows returns the table's high-water row count (live + free).
func (t *FlowTable) Rows() int { return len(t.rows) }

// Live returns the number of rows currently owned by senders.
func (t *FlowTable) Live() int { return len(t.rows) - len(t.free) }

// Reuses returns how many allocations were served from the free list.
func (t *FlowTable) Reuses() uint64 { return t.reuses }

// Reset forgets every row while keeping slice capacity, for scenario reuse
// across campaign replicates. All outstanding slots become invalid.
func (t *FlowTable) Reset() {
	t.rows = t.rows[:0]
	t.free = t.free[:0]
}
