package tcp

import (
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

func TestInsertBlockMergesAndSorts(t *testing.T) {
	var blocks []packet.SACKBlock
	blocks = insertBlock(blocks, packet.SACKBlock{Start: 10, End: 20})
	blocks = insertBlock(blocks, packet.SACKBlock{Start: 30, End: 40})
	blocks = insertBlock(blocks, packet.SACKBlock{Start: 0, End: 5})
	if len(blocks) != 3 {
		t.Fatalf("blocks = %v, want 3 disjoint", blocks)
	}
	// Bridge 20..30: merges the middle.
	blocks = insertBlock(blocks, packet.SACKBlock{Start: 20, End: 30})
	if len(blocks) != 2 {
		t.Fatalf("blocks after merge = %v, want 2", blocks)
	}
	if blocks[1] != (packet.SACKBlock{Start: 10, End: 40}) {
		t.Errorf("merged block = %+v, want [10,40)", blocks[1])
	}
}

func TestInsertBlockIgnoresEmpty(t *testing.T) {
	blocks := insertBlock(nil, packet.SACKBlock{Start: 5, End: 5})
	if len(blocks) != 0 {
		t.Errorf("empty block inserted: %v", blocks)
	}
}

func TestInsertBlockProperty(t *testing.T) {
	// Property: after arbitrary insertions the list is sorted and disjoint.
	err := quick.Check(func(raw []uint8) bool {
		var blocks []packet.SACKBlock
		for i := 0; i+1 < len(raw); i += 2 {
			start := int64(raw[i])
			end := start + int64(raw[i+1]%16) + 1
			blocks = insertBlock(blocks, packet.SACKBlock{Start: start, End: end})
		}
		for i := 0; i < len(blocks); i++ {
			if blocks[i].Len() <= 0 {
				return false
			}
			if i > 0 && blocks[i-1].End >= blocks[i].Start {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Error(err)
	}
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
