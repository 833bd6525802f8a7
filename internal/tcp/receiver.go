package tcp

import (
	"rsstcp/internal/netem"
	"rsstcp/internal/packet"
	"rsstcp/internal/sim"
)

// Receiver is the TCP receiving side: in-order delivery tracking,
// out-of-order range reassembly, delayed ACKs and SACK generation. The
// application consumes instantly, so the advertised window stays constant —
// the well-buffered receivers of the paper's testbed.
type Receiver struct {
	cfg     *Config // shared, read-only (see Sender.Init)
	flow    packet.FlowID
	gen     uint32 // stamped on every ACK sent
	out     netem.Receiver
	rcvNxt  int64
	ooo     *oooRange // out-of-order ranges, sorted and disjoint, lent by cfg.Store
	pending int32     // in-order segments since last ACK
	stopped bool
	delack  sim.Timer
}

// NewReceiver wires a receiver whose ACKs flow into out (the reverse path),
// on a private copy of cfg whose zero fields take DefaultConfig's values and
// whose engine is eng.
func NewReceiver(eng *sim.Engine, cfg Config, flow packet.FlowID, out netem.Receiver) *Receiver {
	cfg.fillDefaults()
	cfg.Eng = eng
	r := new(Receiver)
	r.Init(&cfg, flow, 0, out)
	return r
}

// Init (re)initializes the receiver in place as a fresh connection; a used
// receiver gives any ranges it still holds back to its old Config's store.
// cfg and gen are held and stamped as by Sender.Init.
func (r *Receiver) Init(cfg *Config, flow packet.FlowID, gen uint32, out netem.Receiver) {
	if out == nil {
		panic("tcp: receiver with nil ACK path")
	}
	r.FreeRanges()
	*r = Receiver{} // zero, then set (see Sender.Init)
	r.cfg, r.flow, r.gen, r.out = cfg, flow, gen, out
	r.delack.InitHook(cfg.Eng, cfg.Wheel, (*delAckExpiry)(r))
}

// FreeRanges gives the out-of-order ranges back to the store, leaving the
// list empty. Scenario.Reset calls it for every flow it parks, since the
// receiver is not stopped then; the receiver must not receive again before
// Init.
func (r *Receiver) FreeRanges() {
	for r.ooo != nil {
		n := r.ooo
		r.ooo = n.next
		r.cfg.Store.putRange(n)
	}
}

// RcvNxt returns the next expected sequence number.
func (r *Receiver) RcvNxt() int64 { return r.rcvNxt }

// Stop tears the receiver down for detach: the delayed-ACK timer is
// cancelled, the ranges go back to the store and any stray late segment is
// released unprocessed, so a detached receiver holds no live calendar
// entries and no nodes, and emits no further ACKs. Idempotent.
func (r *Receiver) Stop() {
	if r.stopped {
		return
	}
	r.stopped = true
	r.delack.Stop()
	r.FreeRanges()
}

// Receive processes an arriving data segment (netem.Receiver). The receiver
// is the segment's terminal consumer and releases it.
func (r *Receiver) Receive(seg *packet.Segment) {
	if r.stopped || !seg.IsData() {
		seg.Release()
		return
	}
	segSeq, segEnd := seg.Seq, seg.End()
	seg.Release()
	switch {
	case segEnd <= r.rcvNxt:
		// Entirely old data: duplicate; re-ACK immediately so the sender
		// converges.
		r.sendAck(-1)
	case segSeq <= r.rcvNxt:
		// In-order (possibly partially duplicate) data.
		r.rcvNxt = segEnd
		hadHole := r.ooo != nil
		r.mergeContiguous()
		r.pending++
		// An ACK must go out immediately while holes exist or were just
		// filled (loss recovery depends on it), or at the delayed-ACK
		// threshold.
		if hadHole || r.ooo != nil || int(r.pending) >= r.cfg.AckEvery {
			r.sendAck(-1)
		} else if !r.delack.Armed() {
			r.delack.Arm(r.cfg.DelAckTimeout)
		}
	default:
		// Out of order: store the range and emit an immediate duplicate
		// ACK advertising the hole.
		insertBlock(&r.ooo, r.cfg.Store, segSeq, segEnd)
		r.sendAck(segSeq)
	}
}

// mergeContiguous absorbs the out-of-order ranges that rcv.nxt has reached
// and gives their nodes back.
func (r *Receiver) mergeContiguous() {
	for n := r.ooo; n != nil && n.start <= r.rcvNxt; n = r.ooo {
		r.rcvNxt = max(r.rcvNxt, n.end)
		r.ooo = n.next
		r.cfg.Store.putRange(n)
	}
}

// delAckExpiry is the receiver as its delayed-ACK timer's hook.
type delAckExpiry Receiver

func (h *delAckExpiry) Fire() { (*Receiver)(h).onDelAckTimeout() }

func (r *Receiver) onDelAckTimeout() {
	if r.pending > 0 {
		r.sendAck(-1)
	}
}

// sendAck emits a cumulative ACK. recentSeq, when >= 0, identifies the
// sequence of the segment that triggered this ACK; RFC 2018 requires the
// SACK block containing it to come first, so the sender always learns the
// newest scoreboard information even when more than four blocks exist.
func (r *Receiver) sendAck(recentSeq int64) {
	ack := r.cfg.Pool.Get()
	ack.Flow = r.flow
	ack.Gen = r.gen
	ack.Ack = r.rcvNxt
	ack.Flags = packet.FlagACK
	ack.Wnd = r.cfg.RcvWnd
	ack.SentAt = r.cfg.Eng.Now()
	if r.cfg.SACK && r.ooo != nil {
		// Blocks go straight into the pooled segment's SACK buffer, whose
		// capacity survives recycling — no per-ACK slice allocation.
		blocks := ack.SACK[:0]
		if recentSeq >= 0 {
			for n := r.ooo; n != nil; n = n.next {
				if b := n.block(); b.Contains(recentSeq) {
					blocks = append(blocks, b)
					break
				}
			}
		}
		for n := r.ooo; n != nil && len(blocks) < 4; n = n.next {
			if b := n.block(); len(blocks) == 0 || b != blocks[0] {
				blocks = append(blocks, b)
			}
		}
		ack.SACK = blocks
	}
	r.pending = 0
	r.delack.Stop()
	r.out.Receive(ack)
}

// insertBlock adds the range [start, end) to the sorted, disjoint list at
// *head, merging overlaps and adjacencies; it takes a node from st only when
// the range touches none, and gives back the nodes a merge absorbs. A
// receiver riding out a deep-loss episode inserts thousands of ranges, each
// in a walk to its place and no copying.
func insertBlock(head **oooRange, st *Store, start, end int64) {
	if end <= start {
		return
	}
	// Skip the ranges wholly before [start, end) and not touching it.
	p := head
	for *p != nil && (*p).end < start {
		p = &(*p).next
	}
	n := *p
	if n == nil || n.start > end {
		*p = st.newRange(start, end, n)
		return
	}
	// n overlaps or touches the range: widen it, then absorb every later
	// range the widened one reaches.
	n.start, n.end = min(n.start, start), max(n.end, end)
	for m := n.next; m != nil && m.start <= n.end; m = n.next {
		n.end = max(n.end, m.end)
		n.next = m.next
		st.putRange(m)
	}
}
