package packet

import "testing"

// TestQueueFIFO: segments leave a queue in the order they entered, Len
// follows, and a popped segment can be queued again, here or elsewhere.
func TestQueueFIFO(t *testing.T) {
	var q, other Queue
	segs := []*Segment{{Seq: 1}, {Seq: 2}, {Seq: 3}}
	for _, s := range segs {
		q.Push(s)
	}
	if q.Len() != 3 {
		t.Fatalf("Len=%d, want 3", q.Len())
	}
	for i, want := range segs {
		if got := q.Pop(); got != want {
			t.Fatalf("pop %d returned %v, want seq %d", i, got, want.Seq)
		}
		other.Push(want)
	}
	if q.Pop() != nil || q.Len() != 0 {
		t.Errorf("emptied queue: Len=%d", q.Len())
	}
	if other.Len() != 3 || other.Pop() != segs[0] {
		t.Errorf("re-queued segments out of order")
	}
}

// TestQueuedSegmentGuards: a segment is in one queue at a time. Pushing a
// queued segment, onto the same queue or another, panics, and so does
// releasing a pooled one; once popped it may go either way again. A clone
// of a queued segment is in no queue.
func TestQueuedSegmentGuards(t *testing.T) {
	pool := NewPool()
	var q, other Queue
	s := pool.Get()
	q.Push(s)
	for name, f := range map[string]func(){
		"push twice":           func() { q.Push(s) },
		"push on a 2nd queue":  func() { other.Push(s) },
		"release while queued": func() { s.Release() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
	if q.Len() != 1 || other.Len() != 0 {
		t.Fatalf("after the refused calls Len=%d/%d, want 1/0", q.Len(), other.Len())
	}
	c := s.Clone()
	other.Push(c) // the clone carries no link
	if got := q.Pop(); got != s {
		t.Fatalf("Pop returned %p, want %p", got, s)
	}
	s.Release()
	other.Pop().Release()
	if gets, rels := pool.Counters(); gets != 2 || rels != 2 {
		t.Errorf("pool saw %d gets, %d releases; want 2 and 2", gets, rels)
	}
}
