package netem

import (
	"testing"

	"rsstcp/internal/packet"
	"rsstcp/internal/sim"
)

// TestDuplicatorClonesBeforeHandoff pins the ownership rule: forwarding
// transfers the segment to the callee, which may release it synchronously,
// so the duplicate must be cloned first — not copied from a recycled entry.
func TestDuplicatorClonesBeforeHandoff(t *testing.T) {
	var got []packet.Segment
	sink := Func(func(seg *packet.Segment) {
		got = append(got, *seg)
		seg.Release() // terminal consumer: zeroes and recycles pooled segments
	})
	d := &Duplicator{P: 1, RNG: sim.NewRNG(1), Next: sink}

	pool := packet.NewPool()
	seg := pool.Get()
	seg.Flow = 7
	seg.Seq = 1000
	seg.Len = 1460
	d.Receive(seg)

	if len(got) != 2 {
		t.Fatalf("delivered %d segments, want 2", len(got))
	}
	for i, s := range got {
		if s.Flow != 7 || s.Seq != 1000 || s.Len != 1460 {
			t.Errorf("delivery %d corrupted: flow=%d seq=%d len=%d", i, s.Flow, s.Seq, s.Len)
		}
	}
	if d.Duplicated() != 1 {
		t.Errorf("Duplicated = %d, want 1", d.Duplicated())
	}
	if gets, rels := pool.Counters(); gets != 2 || rels != 2 {
		t.Errorf("pool saw %d gets, %d releases; want the copy drawn from and returned to the original's pool (2, 2)", gets, rels)
	}
}
