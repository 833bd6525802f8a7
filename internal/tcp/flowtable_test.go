package tcp

import (
	"testing"

	"rsstcp/internal/cc"
	"rsstcp/internal/packet"
	"rsstcp/internal/sim"
)

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
	if tbl.Rows() != 2 || tbl.Live() != 2 || tbl.Reuses() != 1 {
		t.Fatalf("rows=%d live=%d reuses=%d, want 2/2/1", tbl.Rows(), tbl.Live(), tbl.Reuses())
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
	if tbl.Rows() > 4 {
		t.Fatalf("table grew to %d rows under churn, want <= 4", tbl.Rows())
	}
}

type nullPath struct{}

func (nullPath) Send(seg *packet.Segment) bool { seg.Release(); return true }
func (nullPath) SetWaker(func())               {}

// TestSenderReleaseRow: the row returns to the shared table on release, the
// guarded accessors go quiet, and a new sender recycles the slot.
func TestSenderReleaseRow(t *testing.T) {
	eng := sim.NewEngine()
	tbl := NewFlowTable(2)
	cfg := DefaultConfig()
	cfg.Table = tbl
	s := NewSender(eng, cfg, 1, cc.NewReno(cc.RenoConfig{}), nullPath{})
	slot := s.Slot()
	s.Supply(1000)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ReleaseRow on a running sender did not panic")
			}
		}()
		s.ReleaseRow()
	}()
	s.Stop()
	s.ReleaseRow()
	s.ReleaseRow() // idempotent
	if s.Slot() != -1 || s.Cwnd() != 0 || s.FlightSize() != 0 {
		t.Fatalf("released sender still reports slot=%d cwnd=%d flight=%d",
			s.Slot(), s.Cwnd(), s.FlightSize())
	}
	s2 := NewSender(eng, cfg, 2, cc.NewReno(cc.RenoConfig{}), nullPath{})
	if s2.Slot() != slot {
		t.Fatalf("new sender got slot %d, want recycled %d", s2.Slot(), slot)
	}
}
