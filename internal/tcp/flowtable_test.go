package tcp

import "testing"

func TestFlowTableAllocFreeRecycles(t *testing.T) {
	tbl := NewFlowTable(4)
	a := tbl.Alloc()
	b := tbl.Alloc()
	if a == b {
		t.Fatal("distinct allocs share a slot")
	}
	tbl.rows[a] = flowRow{cwnd: 99, ssthresh: 1, rwnd: 2, sndUna: 3, sndNxt: 4, maxSent: 5,
		supplied: 6, sackedBytes: 7, fack: 8, rtxOut: 9, segHead: 10}
	tbl.Free(a)
	c := tbl.Alloc()
	if c != a {
		t.Fatalf("free list not reused: got slot %d, want %d", c, a)
	}
	if tbl.rows[c] != (flowRow{}) {
		t.Fatalf("recycled row not zeroed: %+v", tbl.rows[c])
	}
	if len(tbl.rows) != 2 || len(tbl.free) != 0 {
		t.Fatalf("rows=%d free=%d, want 2/0", len(tbl.rows), len(tbl.free))
	}
}

func TestFlowTableBoundedByPeakLive(t *testing.T) {
	tbl := NewFlowTable(0)
	// 10k sequential flow lifetimes with at most 3 live: the table must
	// stay at 3 rows, not grow with total churn.
	var live []int32
	for i := 0; i < 10000; i++ {
		live = append(live, tbl.Alloc())
		if len(live) > 3 {
			tbl.Free(live[0])
			live = live[1:]
		}
	}
	if len(tbl.rows) > 4 {
		t.Fatalf("table grew to %d rows under churn, want <= 4", len(tbl.rows))
	}
}
