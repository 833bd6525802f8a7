package packet

import "testing"

func TestPoolGetReturnsZeroedSegment(t *testing.T) {
	pool := NewPool()
	s := pool.Get()
	s.Flow = 3
	s.Seq = 100
	s.Len = 1448
	s.SACK = append(s.SACK, SACKBlock{Start: 1, End: 2})
	s.Release()

	s2 := pool.Get()
	defer s2.Release()
	if s2 != s {
		t.Error("released segment was not recycled")
	}
	if s2.Flow != 0 || s2.Seq != 0 || s2.Len != 0 || len(s2.SACK) != 0 {
		t.Errorf("recycled segment not zeroed: %+v", s2)
	}
}

func TestReleaseIsIdempotentAndIgnoresManualSegments(t *testing.T) {
	pool := NewPool()

	manual := &Segment{Seq: 5, Len: 10}
	manual.Release() // not from a pool: must be a no-op
	if manual.Seq != 5 || manual.Len != 10 {
		t.Error("Release zeroed a hand-built segment")
	}

	s := pool.Get()
	s.Release()
	s.Release() // double release must not poison the pool

	gets, rels := pool.Counters()
	if gets != 1 {
		t.Errorf("gets = %d, want 1", gets)
	}
	if rels != 1 {
		t.Errorf("releases = %d, want 1 (double/manual release counted)", rels)
	}
}

// TestCloneIsIndependent: a pooled segment's clone is checked out of the
// same pool, survives the original's release, and goes back there.
func TestCloneIsIndependent(t *testing.T) {
	pool := NewPool()
	s := pool.Get()
	s.Seq = 10
	s.Len = 5
	s.SACK = append(s.SACK, SACKBlock{Start: 1, End: 2})
	c := s.Clone()
	s.SACK[0].Start = 99
	if c.SACK[0].Start != 1 {
		t.Error("clone aliases the original's SACK blocks")
	}
	s.Release()
	if c.Seq != 10 || c.Len != 5 {
		t.Error("releasing the original corrupted the clone")
	}
	c.Release()
	if gets, rels := pool.Counters(); gets != 2 || rels != 2 {
		t.Errorf("pool saw %d gets, %d releases; want 2 and 2", gets, rels)
	}
}
