package tcp

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"rsstcp/internal/netem"
	"rsstcp/internal/packet"
	"rsstcp/internal/sim"
)

type ackCollector struct {
	acks []*packet.Segment
}

func (a *ackCollector) Receive(seg *packet.Segment) { a.acks = append(a.acks, seg) }

func data(seq int64, n int) *packet.Segment {
	return &packet.Segment{Seq: seq, Len: n, Flags: packet.FlagACK}
}

func newTestReceiver(eng *sim.Engine, cfg Config) (*Receiver, *ackCollector) {
	col := &ackCollector{}
	r := NewReceiver(eng, cfg, 1, col)
	return r, col
}

func TestReceiverInOrderDelayedAck(t *testing.T) {
	eng := sim.NewEngine()
	r, col := newTestReceiver(eng, Config{MSS: 1000, AckEvery: 2})
	r.Receive(data(0, 1000))
	if len(col.acks) != 0 {
		t.Fatal("acked first segment immediately despite delayed ACK")
	}
	r.Receive(data(1000, 1000))
	if len(col.acks) != 1 {
		t.Fatalf("acks = %d, want 1 after second segment", len(col.acks))
	}
	if col.acks[0].Ack != 2000 {
		t.Errorf("ack = %d, want 2000", col.acks[0].Ack)
	}
	if r.RcvNxt() != 2000 {
		t.Errorf("RcvNxt = %d, want 2000", r.RcvNxt())
	}
}

func TestReceiverDelAckTimerFires(t *testing.T) {
	eng := sim.NewEngine()
	r, col := newTestReceiver(eng, Config{MSS: 1000, DelAckTimeout: 40 * time.Millisecond})
	r.Receive(data(0, 1000))
	eng.RunUntil(sim.At(39 * time.Millisecond))
	if len(col.acks) != 0 {
		t.Fatal("ack sent before delayed-ACK timeout")
	}
	eng.RunUntil(sim.At(41 * time.Millisecond))
	if len(col.acks) != 1 {
		t.Fatalf("acks = %d, want 1 after timeout", len(col.acks))
	}
	if at := col.acks[0].SentAt; at != sim.At(40*time.Millisecond) || col.acks[0].Ack != 1000 {
		t.Errorf("ack %d sent at %v, want 1000 at the 40ms timeout", col.acks[0].Ack, at)
	}
}

func TestReceiverOutOfOrderImmediateDupAck(t *testing.T) {
	eng := sim.NewEngine()
	r, col := newTestReceiver(eng, Config{MSS: 1000})
	r.Receive(data(0, 1000))
	r.Receive(data(1000, 1000)) // ack at 2000
	n := len(col.acks)
	// Skip 2000..3000: the next two arrivals are out of order.
	r.Receive(data(3000, 1000))
	r.Receive(data(4000, 1000))
	if len(col.acks) != n+2 {
		t.Fatalf("dup acks = %d, want 2 immediate", len(col.acks)-n)
	}
	for _, a := range col.acks[n:] {
		if a.Ack != 2000 {
			t.Errorf("dup ack = %d, want 2000", a.Ack)
		}
	}
	if r.RcvNxt() != 2000 {
		t.Errorf("RcvNxt = %d, want 2000 with the out-of-order data held", r.RcvNxt())
	}
}

func TestReceiverHoleFillAdvancesPastOOO(t *testing.T) {
	eng := sim.NewEngine()
	r, col := newTestReceiver(eng, Config{MSS: 1000})
	r.Receive(data(0, 1000))
	r.Receive(data(2000, 1000)) // hole at 1000
	r.Receive(data(1000, 1000)) // fills the hole
	if r.RcvNxt() != 3000 {
		t.Errorf("RcvNxt = %d, want 3000 (merged OOO)", r.RcvNxt())
	}
	last := col.acks[len(col.acks)-1]
	if last.Ack != 3000 {
		t.Errorf("final ack = %d, want 3000", last.Ack)
	}
}

func TestReceiverDuplicateSegmentReAcks(t *testing.T) {
	eng := sim.NewEngine()
	r, col := newTestReceiver(eng, Config{MSS: 1000})
	r.Receive(data(0, 1000))
	r.Receive(data(1000, 1000))
	n := len(col.acks)
	r.Receive(data(0, 1000)) // complete duplicate
	if len(col.acks) != n+1 {
		t.Fatal("duplicate did not trigger immediate ack")
	}
	if a := col.acks[n]; a.Ack != 2000 {
		t.Errorf("re-ACK = %d, want 2000", a.Ack)
	}
	if r.RcvNxt() != 2000 {
		t.Errorf("RcvNxt moved on duplicate: %d", r.RcvNxt())
	}
}

func TestReceiverPartialOverlapAccepted(t *testing.T) {
	eng := sim.NewEngine()
	r, _ := newTestReceiver(eng, Config{MSS: 1000})
	r.Receive(data(0, 1000))
	// Segment overlapping the tail: [500, 1500).
	r.Receive(data(500, 1000))
	// Only the new 500 bytes are accepted.
	if r.RcvNxt() != 1500 {
		t.Errorf("RcvNxt = %d, want 1500", r.RcvNxt())
	}
}

func TestReceiverSACKBlocksAdvertiseOOO(t *testing.T) {
	eng := sim.NewEngine()
	r, col := newTestReceiver(eng, Config{MSS: 1000, SACK: true})
	r.Receive(data(0, 1000))
	r.Receive(data(1000, 1000))
	r.Receive(data(3000, 1000)) // OOO
	last := col.acks[len(col.acks)-1]
	if len(last.SACK) != 1 {
		t.Fatalf("SACK blocks = %d, want 1", len(last.SACK))
	}
	if last.SACK[0] != (packet.SACKBlock{Start: 3000, End: 4000}) {
		t.Errorf("SACK block = %+v, want [3000,4000)", last.SACK[0])
	}
}

func TestReceiverSACKLimitsToFourBlocks(t *testing.T) {
	eng := sim.NewEngine()
	r, col := newTestReceiver(eng, Config{MSS: 1000, SACK: true})
	// Six disjoint OOO ranges.
	for i := 0; i < 6; i++ {
		r.Receive(data(int64(2000*i+2000), 1000))
	}
	last := col.acks[len(col.acks)-1]
	if len(last.SACK) != 4 {
		t.Errorf("SACK blocks = %d, want 4 (option space limit)", len(last.SACK))
	}
}

func TestReceiverNoSACKWhenDisabled(t *testing.T) {
	eng := sim.NewEngine()
	r, col := newTestReceiver(eng, Config{MSS: 1000, SACK: false})
	r.Receive(data(2000, 1000))
	last := col.acks[len(col.acks)-1]
	if len(last.SACK) != 0 {
		t.Errorf("SACK blocks = %d with SACK disabled", len(last.SACK))
	}
}

func TestReceiverIgnoresPureAcks(t *testing.T) {
	eng := sim.NewEngine()
	r, col := newTestReceiver(eng, Config{MSS: 1000})
	r.Receive(&packet.Segment{Flags: packet.FlagACK, Ack: 500})
	if len(col.acks) != 0 || r.RcvNxt() != 0 {
		t.Error("pure ACK processed as data")
	}
}

func TestReceiverAdvertisedWindowConstant(t *testing.T) {
	eng := sim.NewEngine()
	r, col := newTestReceiver(eng, Config{MSS: 1000, RcvWnd: 123456, AckEvery: 1})
	r.Receive(data(0, 1000))
	if col.acks[0].Wnd != 123456 {
		t.Errorf("advertised window = %d, want 123456", col.acks[0].Wnd)
	}
}

// blocksOf returns a range list as blocks, front to back.
func blocksOf(head *oooRange) []packet.SACKBlock {
	var out []packet.SACKBlock
	for n := head; n != nil; n = n.next {
		out = append(out, n.block())
	}
	return out
}

func TestInsertBlockMergesAndSorts(t *testing.T) {
	st := NewStore()
	var head *oooRange
	insertBlock(&head, st, 10, 20)
	insertBlock(&head, st, 30, 40)
	insertBlock(&head, st, 0, 5)
	if blocks := blocksOf(head); len(blocks) != 3 || blocks[0].Start != 0 {
		t.Fatalf("blocks = %v, want 3 disjoint, sorted", blocks)
	}
	// Bridge 20..30: merges the middle, and the absorbed node goes back.
	insertBlock(&head, st, 20, 30)
	blocks := blocksOf(head)
	if len(blocks) != 2 {
		t.Fatalf("blocks after merge = %v, want 2", blocks)
	}
	if blocks[1] != (packet.SACKBlock{Start: 10, End: 40}) {
		t.Errorf("merged block = %+v, want [10,40)", blocks[1])
	}
	if ranges := st.Stats(); ranges.Out != 2 || ranges.Peak != 3 {
		t.Errorf("store has %d ranges out (peak %d), want 2 (3)", ranges.Out, ranges.Peak)
	}
}

func TestInsertBlockIgnoresEmpty(t *testing.T) {
	st := NewStore()
	var head *oooRange
	insertBlock(&head, st, 5, 5)
	insertBlock(&head, st, 7, 6)
	if head != nil {
		t.Errorf("empty block inserted: %v", blocksOf(head))
	}
	if ranges := st.Stats(); ranges.Allocated != 0 {
		t.Errorf("empty inserts allocated %d ranges", ranges.Allocated)
	}
}

// TestInsertBlockProperty: after arbitrary insertions the list is sorted and
// disjoint (touching ranges merge), covers exactly the bytes inserted, and
// holds every range the store has out.
func TestInsertBlockProperty(t *testing.T) {
	err := quick.Check(func(raw []uint8) bool {
		st := NewStore()
		var head *oooRange
		var covered [256 + 16]bool
		for i := 0; i+1 < len(raw); i += 2 {
			start := int64(raw[i])
			end := start + int64(raw[i+1]%16) + 1
			insertBlock(&head, st, start, end)
			for b := start; b < end; b++ {
				covered[b] = true
			}
		}
		blocks := blocksOf(head)
		var got [256 + 16]bool
		for i, b := range blocks {
			if b.Len() <= 0 || i > 0 && blocks[i-1].End >= b.Start {
				return false
			}
			for x := b.Start; x < b.End; x++ {
				got[x] = true
			}
		}
		ranges := st.Stats()
		return got == covered && ranges.Out == len(blocks)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

// TestReceiverGivesRangesBack: the ranges an out-of-order episode takes go
// back to the store as rcv.nxt reaches them, and a stopped receiver holds
// none.
func TestReceiverGivesRangesBack(t *testing.T) {
	eng := sim.NewEngine()
	r, _ := newTestReceiver(eng, Config{MSS: 1000, SACK: true})
	st := r.cfg.Store
	r.Receive(data(2000, 1000))
	r.Receive(data(4000, 1000))
	if ranges := st.Stats(); ranges.Out != 2 {
		t.Fatalf("two holes: %d ranges out, want 2", ranges.Out)
	}
	r.Receive(data(0, 1000))
	r.Receive(data(1000, 1000)) // fills the first hole, absorbs [2000,3000)
	if ranges := st.Stats(); ranges.Out != 1 || r.RcvNxt() != 3000 {
		t.Fatalf("first hole filled: %d ranges out, rcv.nxt %d; want 1 and 3000", ranges.Out, r.RcvNxt())
	}
	r.Stop()
	if ranges := st.Stats(); ranges.Out != 0 || r.ooo != nil {
		t.Errorf("stopped receiver holds %d ranges", ranges.Out)
	}
}

// TestReceiverOwnsNoArray: a receiver holds no slice, map or channel at any
// depth of its value, so what a connection keeps for reassembly is its range
// nodes, which the store lends and takes back.
func TestReceiverOwnsNoArray(t *testing.T) {
	var walk func(ty reflect.Type, path string)
	walk = func(ty reflect.Type, path string) {
		switch ty.Kind() {
		case reflect.Slice, reflect.Map, reflect.Chan:
			t.Errorf("%s is a %s", path, ty.Kind())
		case reflect.Array:
			walk(ty.Elem(), path+"[]")
		case reflect.Struct:
			for i := range ty.NumField() {
				walk(ty.Field(i).Type, path+"."+ty.Field(i).Name)
			}
		}
	}
	walk(reflect.TypeFor[Receiver](), "Receiver")
}

func TestReceiverPanicsOnNilOut(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil ACK path did not panic")
		}
	}()
	NewReceiver(sim.NewEngine(), Config{}, 1, nil)
}

var _ netem.Receiver = (*Receiver)(nil)
var _ netem.Receiver = (*Sender)(nil)
