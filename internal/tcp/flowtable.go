package tcp

// FlowTable is the dense struct-of-arrays block holding every sender's hot
// window and sequence state as parallel slices indexed by a compact flow
// slot. A 10k-flow scenario touches this state on every ACK; keeping it in
// a handful of contiguous arrays instead of 10k pointer-rich Sender structs
// keeps sequential passes dense and the cold struct small. A random-access
// ACK still touches up to eleven cache lines, one per array (DESIGN.md).
//
// A Sender owns one row from NewSender until ReleaseRow; released rows go
// on a free list and are recycled (zeroed) by the next Alloc, so a churn
// run's table is bounded by its peak live flow count, not its total flow
// count. The table is not safe for concurrent use: like the engine, a
// simulation is a single logical thread, and campaign workers each own a
// private table.
type FlowTable struct {
	// window state (bytes)
	cwnd     []int64
	ssthresh []int64
	rwnd     []int64 // peer's advertised window, from ACKs

	// sequence state
	sndUna   []int64
	sndNxt   []int64
	maxSent  []int64 // transmission high-water mark (survives RTO rewind)
	supplied []int64 // bytes the application has made available

	// SACK scoreboard aggregates
	sackedBytes []int64 // bytes of outstanding records marked SACKed
	fack        []int64 // forward ACK: highest SACKed sequence end
	rtxOut      []int64 // retransmitted bytes not yet (S)ACKed

	// segHead is the live-window head index into the sender's record list
	// (see Sender.live).
	segHead []int32

	free []int32 // released slots awaiting reuse

	// lifetime counters (survive across flows, for tests and telemetry)
	allocs uint64
	reuses uint64
}

// NewFlowTable returns an empty table with capacity for about capHint
// concurrent flows pre-reserved (0 is fine: the slices grow on demand).
func NewFlowTable(capHint int) *FlowTable {
	t := &FlowTable{}
	if capHint > 0 {
		t.grow(capHint)
	}
	return t
}

func (t *FlowTable) grow(capHint int) {
	t.cwnd = make([]int64, 0, capHint)
	t.ssthresh = make([]int64, 0, capHint)
	t.rwnd = make([]int64, 0, capHint)
	t.sndUna = make([]int64, 0, capHint)
	t.sndNxt = make([]int64, 0, capHint)
	t.maxSent = make([]int64, 0, capHint)
	t.supplied = make([]int64, 0, capHint)
	t.sackedBytes = make([]int64, 0, capHint)
	t.fack = make([]int64, 0, capHint)
	t.rtxOut = make([]int64, 0, capHint)
	t.segHead = make([]int32, 0, capHint)
}

// Alloc returns a zeroed row slot, reusing a released one when available.
func (t *FlowTable) Alloc() int32 {
	if n := len(t.free); n > 0 {
		slot := t.free[n-1]
		t.free = t.free[:n-1]
		t.zero(slot)
		t.reuses++
		return slot
	}
	slot := int32(len(t.cwnd))
	t.cwnd = append(t.cwnd, 0)
	t.ssthresh = append(t.ssthresh, 0)
	t.rwnd = append(t.rwnd, 0)
	t.sndUna = append(t.sndUna, 0)
	t.sndNxt = append(t.sndNxt, 0)
	t.maxSent = append(t.maxSent, 0)
	t.supplied = append(t.supplied, 0)
	t.sackedBytes = append(t.sackedBytes, 0)
	t.fack = append(t.fack, 0)
	t.rtxOut = append(t.rtxOut, 0)
	t.segHead = append(t.segHead, 0)
	t.allocs++
	return slot
}

func (t *FlowTable) zero(i int32) {
	t.cwnd[i] = 0
	t.ssthresh[i] = 0
	t.rwnd[i] = 0
	t.sndUna[i] = 0
	t.sndNxt[i] = 0
	t.maxSent[i] = 0
	t.supplied[i] = 0
	t.sackedBytes[i] = 0
	t.fack[i] = 0
	t.rtxOut[i] = 0
	t.segHead[i] = 0
}

// Free returns a row to the free list. The caller must not touch the slot
// again; the next Alloc may hand it to another flow.
func (t *FlowTable) Free(slot int32) {
	if slot < 0 || int(slot) >= len(t.cwnd) {
		panic("tcp: FlowTable.Free of an invalid slot")
	}
	t.free = append(t.free, slot)
}

// Rows returns the table's high-water row count (live + free).
func (t *FlowTable) Rows() int { return len(t.cwnd) }

// Live returns the number of rows currently owned by senders.
func (t *FlowTable) Live() int { return len(t.cwnd) - len(t.free) }

// Reuses returns how many allocations were served from the free list.
func (t *FlowTable) Reuses() uint64 { return t.reuses }

// Reset forgets every row while keeping slice capacity, for scenario reuse
// across campaign replicates. All outstanding slots become invalid.
func (t *FlowTable) Reset() {
	t.cwnd = t.cwnd[:0]
	t.ssthresh = t.ssthresh[:0]
	t.rwnd = t.rwnd[:0]
	t.sndUna = t.sndUna[:0]
	t.sndNxt = t.sndNxt[:0]
	t.maxSent = t.maxSent[:0]
	t.supplied = t.supplied[:0]
	t.sackedBytes = t.sackedBytes[:0]
	t.fack = t.fack[:0]
	t.rtxOut = t.rtxOut[:0]
	t.segHead = t.segHead[:0]
	t.free = t.free[:0]
}
