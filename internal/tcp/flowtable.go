package tcp

// flowRow is the layout of one FlowTable row: the window and sequence state
// an ACK reads and writes besides the record list.
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

	// segHead is the live-window head index into a record list.
	segHead int32
}

// FlowTable is a slot allocator over one slice of per-flow rows, with a free
// list so a table under churn stays sized to its peak live population.
// Senders no longer keep their window state here: it sits in the Sender,
// beside the state every ACK touches anyway (DESIGN.md, "Flow-state rows").
// The table stays only as what bench/layers' tcp.flowtable_row_ns
// measurement times, an Alloc/Free cycle; no scenario uses it.
//
// Released rows are recycled (zeroed) by the next Alloc. Alloc may move the
// rows. The table is not safe for concurrent use.
type FlowTable struct {
	rows []flowRow
	free []int32 // released slots awaiting reuse
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
