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
	ooo     []packet.SACKBlock // sorted, disjoint
	pending int32              // in-order segments since last ACK
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
// receiver keeps only its reassembly list's backing array. cfg and gen are
// held and stamped as by Sender.Init.
func (r *Receiver) Init(cfg *Config, flow packet.FlowID, gen uint32, out netem.Receiver) {
	if out == nil {
		panic("tcp: receiver with nil ACK path")
	}
	ooo := r.ooo[:0]
	*r = Receiver{} // zero, then set (see Sender.Init)
	r.cfg, r.flow, r.gen, r.out = cfg, flow, gen, out
	r.ooo = ooo
	r.delack.InitHook(cfg.Eng, cfg.Wheel, (*delAckExpiry)(r))
}

// RcvNxt returns the next expected sequence number.
func (r *Receiver) RcvNxt() int64 { return r.rcvNxt }

// Stop tears the receiver down for detach: the delayed-ACK timer is
// cancelled and any stray late segment is released unprocessed, so a
// detached receiver holds no live calendar entries and emits no further
// ACKs. Idempotent.
func (r *Receiver) Stop() {
	if r.stopped {
		return
	}
	r.stopped = true
	r.delack.Stop()
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
		hadHole := len(r.ooo) > 0
		r.mergeContiguous()
		r.pending++
		// An ACK must go out immediately while holes exist or were just
		// filled (loss recovery depends on it), or at the delayed-ACK
		// threshold.
		if hadHole || len(r.ooo) > 0 || int(r.pending) >= r.cfg.AckEvery {
			r.sendAck(-1)
		} else if !r.delack.Armed() {
			r.delack.Arm(r.cfg.DelAckTimeout)
		}
	default:
		// Out of order: store the range and emit an immediate duplicate
		// ACK advertising the hole.
		r.ooo = insertBlock(r.ooo, packet.SACKBlock{Start: segSeq, End: segEnd})
		r.sendAck(segSeq)
	}
}

// mergeContiguous absorbs out-of-order ranges that rcv.nxt has reached.
// Remaining ranges shift down in place so the block buffer keeps its
// capacity across recovery episodes.
func (r *Receiver) mergeContiguous() {
	i := 0
	for i < len(r.ooo) && r.ooo[i].Start <= r.rcvNxt {
		if r.ooo[i].End > r.rcvNxt {
			r.rcvNxt = r.ooo[i].End
		}
		i++
	}
	if i > 0 {
		n := copy(r.ooo, r.ooo[i:])
		r.ooo = r.ooo[:n]
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
	if r.cfg.SACK && len(r.ooo) > 0 {
		// Blocks go straight into the pooled segment's SACK buffer, whose
		// capacity survives recycling — no per-ACK slice allocation.
		blocks := ack.SACK[:0]
		if recentSeq >= 0 {
			for _, b := range r.ooo {
				if b.Contains(recentSeq) {
					blocks = append(blocks, b)
					break
				}
			}
		}
		for _, b := range r.ooo {
			if len(blocks) >= 4 {
				break
			}
			if len(blocks) > 0 && b == blocks[0] {
				continue
			}
			blocks = append(blocks, b)
		}
		ack.SACK = blocks
	}
	r.pending = 0
	r.delack.Stop()
	r.out.Receive(ack)
}

// insertBlock adds b to a sorted, disjoint block list, merging overlaps and
// adjacencies. The merge is performed in place: a receiver riding out a
// deep-loss episode inserts thousands of ranges and must not allocate a
// fresh list per arrival.
func insertBlock(blocks []packet.SACKBlock, b packet.SACKBlock) []packet.SACKBlock {
	if b.Len() <= 0 {
		return blocks
	}
	// lo is the first block that could merge with b (End >= b.Start);
	// [lo, hi) is the run of blocks overlapping or touching b.
	lo := 0
	for lo < len(blocks) && blocks[lo].End < b.Start {
		lo++
	}
	hi := lo
	for hi < len(blocks) && blocks[hi].Start <= b.End {
		if blocks[hi].Start < b.Start {
			b.Start = blocks[hi].Start
		}
		if blocks[hi].End > b.End {
			b.End = blocks[hi].End
		}
		hi++
	}
	if hi == lo {
		// Nothing to merge: open a slot at lo.
		blocks = append(blocks, packet.SACKBlock{})
		copy(blocks[lo+1:], blocks[lo:])
		blocks[lo] = b
		return blocks
	}
	// Replace the merged run with b and close the gap.
	blocks[lo] = b
	n := copy(blocks[lo+1:], blocks[hi:])
	return blocks[:lo+1+n]
}
